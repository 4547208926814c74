(** The telemetry layer: span/counter recording, the disabled sink,
    Chrome/summary serialization, and the headline guarantee — tracing
    observes grading without ever steering it (traced output is
    byte-identical to untraced, at any pool width). *)

open Jfeed_kb
open Jfeed_robust
module Trace = Jfeed_trace.Trace
module Proto = Jfeed_service.Proto
module Metrics = Jfeed_service.Metrics

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* The disabled sink *)

let test_disabled_is_nil () =
  let t = Trace.disabled in
  check "disabled" true (not (Trace.enabled t));
  let r = Trace.span t "parse" (fun () -> 41 + 1) in
  Alcotest.(check int) "span is just the thunk" 42 r;
  Trace.count t "fuel" 99;
  Trace.add_attr t "k" "v";
  check "no spans" true (Trace.spans t = []);
  check "no counters" true (Trace.counters t = [])

let test_ambient_default_disabled () =
  check "ambient starts disabled" true (not (Trace.enabled (Trace.current ())));
  let t = Trace.create () in
  let seen = Trace.with_current t (fun () -> Trace.current ()) in
  check "with_current installs" true (Trace.enabled seen);
  check "restored after" true (not (Trace.enabled (Trace.current ())))

(* ------------------------------------------------------------------ *)
(* Span structure *)

let test_span_nesting () =
  let t = Trace.create () in
  Trace.span t "a" (fun () ->
      Trace.span t "b" (fun () -> Trace.add_attr t "k" "v");
      Trace.span t "c" (fun () -> ()));
  (match Trace.spans t with
  | [ a; b; c ] ->
      Alcotest.(check string) "names in begin order" "a-b-c"
        (String.concat "-" [ a.Trace.name; b.Trace.name; c.Trace.name ]);
      Alcotest.(check int) "a is a root" 0 a.Trace.parent;
      Alcotest.(check int) "b under a" a.Trace.sid b.Trace.parent;
      Alcotest.(check int) "c under a" a.Trace.sid c.Trace.parent;
      check "b carries the attr" true (b.Trace.attrs = [ ("k", "v") ])
  | spans ->
      Alcotest.failf "expected 3 spans, got %d" (List.length spans));
  (* An exception still closes the span (Fun.protect). *)
  (try Trace.span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  let last = List.nth (Trace.spans t) 3 in
  check "exceptional span closed" true (last.Trace.dur_ns >= 0L)

let test_counters_accumulate_in_order () =
  let t = Trace.create () in
  Trace.count t "b" 2;
  Trace.count t "a" 1;
  Trace.count t "b" 3;
  Alcotest.(check (list (pair string int)))
    "first-use order, summed"
    [ ("b", 5); ("a", 1) ]
    (Trace.counters t)

let test_rollup_truncates_at_colon () =
  let t = Trace.create () in
  Trace.span t "match:p1" (fun () -> ());
  Trace.span t "match:p2" (fun () -> ());
  Trace.span t "parse" (fun () -> ());
  match Trace.rollup t with
  | [ ("match", (2, _)); ("parse", (1, _)) ] -> ()
  | r ->
      Alcotest.failf "unexpected rollup: %s"
        (String.concat ";" (List.map fst r))

(* ------------------------------------------------------------------ *)
(* Serialization: both outputs must be valid JSON (the service's own
   parser is the referee) with the advertised shape *)

let parse_ok what s =
  match Proto.parse_json s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s is not valid JSON: %s" what e

let test_chrome_json_shape () =
  let t = Trace.create () in
  Trace.span t "parse" (fun () ->
      Trace.span t {|match:p"1|} (fun () -> Trace.count t "fuel" 7));
  match parse_ok "chrome trace" (Trace.to_chrome_json ~pid:3 ~tid:9 t) with
  | Proto.Arr events ->
      Alcotest.(check int) "2 spans + 1 counter event" 3 (List.length events);
      let complete, counter =
        List.partition
          (fun e -> Proto.member "ph" e = Some (Proto.Str "X"))
          events
      in
      List.iter
        (fun e ->
          List.iter
            (fun f ->
              check (f ^ " present") true (Proto.member f e <> None))
            [ "name"; "ts"; "dur"; "pid"; "tid" ];
          check "pid echoed" true
            (Proto.member "pid" e = Some (Proto.Num 3.0));
          check "tid echoed" true
            (Proto.member "tid" e = Some (Proto.Num 9.0)))
        complete;
      (match counter with
      | [ c ] ->
          check "counter event" true
            (Proto.member "ph" c = Some (Proto.Str "C"))
      | _ -> Alcotest.fail "expected exactly one counter event")
  | _ -> Alcotest.fail "chrome trace must be a JSON array"

let test_summary_json_shape () =
  let t = Trace.create () in
  Trace.span t "match:p1" (fun () -> ());
  Trace.span t "match:p2" (fun () -> ());
  Trace.count t "fuel.matcher" 12;
  let j = parse_ok "summary" (Trace.summary_json t) in
  (match Proto.member "stages" j with
  | Some stages -> (
      match Proto.member "match" stages with
      | Some m ->
          check "aggregated n" true (Proto.member "n" m = Some (Proto.Num 2.0))
      | None -> Alcotest.fail "match stage missing")
  | None -> Alcotest.fail "stages missing");
  match Proto.member "counters" j with
  | Some c ->
      check "counter carried" true
        (Proto.member "fuel.matcher" c = Some (Proto.Num 12.0))
  | None -> Alcotest.fail "counters missing"

(* ------------------------------------------------------------------ *)
(* Budget stage accounting feeding the fuel.* counters *)

let test_budget_spent_by_sums () =
  let module Budget = Jfeed_budget.Budget in
  let b = Budget.create ~fuel:1_000 () in
  check "spend ok" true (Budget.spend b Budget.Matcher 40);
  check "spend ok" true (Budget.spend b Budget.Interp 7);
  check "spend ok" true (Budget.spend b Budget.Matcher 3);
  let by = Budget.spent_by b in
  Alcotest.(check int) "matcher share" 43 (List.assoc "matcher" by);
  Alcotest.(check int) "interp share" 7 (List.assoc "interp" by);
  Alcotest.(check int)
    "shares sum to spent" (Budget.spent b)
    (List.fold_left (fun a (_, n) -> a + n) 0 by)

(* ------------------------------------------------------------------ *)
(* The headline: tracing never steers grading.  Corpus = generated
   submissions, α-renamed variants (Jfeed_gen.Mutate) and hostile
   mutants (Test_robust.mutate), graded traced and untraced at pool
   widths 1 and 4. *)

let corpus_bundle = Bundles.esc_p2v2

let corpus =
  let spec = corpus_bundle.Bundles.gen in
  let size = Jfeed_gen.Spec.size spec in
  List.init 36 (fun i ->
      let idx = (i * 48271) mod size in
      let src = Jfeed_gen.Spec.source_of_index spec idx in
      let src =
        match i mod 3 with
        | 0 -> src
        | 1 -> Jfeed_gen.Mutate.alpha_rename ~seed:(i * 31 + 7) src
        | _ -> Test_robust.mutate (Test_robust.lcg ((i * 104729) + idx)) src
      in
      (Printf.sprintf "t%03d.java" i, Ok src))

let untraced_lines summary =
  List.map
    (fun (it : Pipeline.item) ->
      Outcome.to_json ~file:it.Pipeline.file it.Pipeline.outcome)
    summary.Pipeline.items

let test_tracing_is_pure_observation () =
  let run ~jobs ~traced =
    Pipeline.run_batch ~fuel:50_000 ~jobs ~traced corpus_bundle corpus
  in
  let base = untraced_lines (run ~jobs:1 ~traced:false) in
  List.iter
    (fun jobs ->
      let traced = run ~jobs ~traced:true in
      Alcotest.(check (list string))
        (Printf.sprintf "traced jobs:%d outcome bytes" jobs)
        base (untraced_lines traced);
      (* Every item's span tree is well formed: all spans closed,
         parents precede children, children nest inside their parent's
         interval (the monotonic clock makes this exact, not
         approximate). *)
      List.iter
        (fun (it : Pipeline.item) ->
          check "item traced" true (Trace.enabled it.Pipeline.trace);
          let spans = Trace.spans it.Pipeline.trace in
          check "has spans" true (spans <> []);
          let by_sid = Hashtbl.create 64 in
          List.iter
            (fun (s : Trace.span_info) -> Hashtbl.add by_sid s.Trace.sid s)
            spans;
          List.iteri
            (fun i (s : Trace.span_info) ->
              Alcotest.(check int) "sids are begin-ordered" (i + 1) s.Trace.sid;
              check "closed" true (s.Trace.dur_ns >= 0L);
              if s.Trace.parent <> 0 then begin
                let p = Hashtbl.find by_sid s.Trace.parent in
                check "parent opened first" true (p.Trace.sid < s.Trace.sid);
                check "starts inside parent" true
                  (s.Trace.start_ns >= p.Trace.start_ns);
                check "ends inside parent" true
                  (Int64.add s.Trace.start_ns s.Trace.dur_ns
                  <= Int64.add p.Trace.start_ns p.Trace.dur_ns)
              end)
            spans)
        traced.Pipeline.items)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Service metrics: exposition coherence and the slowlog ring *)

let test_prometheus_exposition () =
  let m = Metrics.create () in
  Metrics.record_request m;
  Metrics.record_grade m ~outcome:"graded" ~hit:false ~ms:0.7;
  Metrics.record_grade m ~outcome:"degraded" ~hit:true ~ms:30.0;
  Metrics.record_grade m ~outcome:"graded" ~hit:false ~ms:3000.0;
  let view =
    {
      Metrics.cache_size = 2;
      cache_cap = 10;
      queue_depth = 1;
      queue_cap = 8;
      serving = None;
      slo = None;
      events = None;
    }
  in
  let text = Metrics.exposition m view in
  let lines = String.split_on_char '\n' text in
  let sample prefix =
    match
      List.find_opt
        (fun l ->
          String.length l > String.length prefix
          && String.sub l 0 (String.length prefix) = prefix
          && l.[String.length prefix] = ' ')
        lines
    with
    | Some l ->
        int_of_string
          (String.sub l
             (String.length prefix + 1)
             (String.length l - String.length prefix - 1))
    | None -> Alcotest.failf "no sample line for %s" prefix
  in
  let grades =
    match
      Proto.parse_json (Proto.stats_response (Metrics.stats m view))
    with
    | Ok j -> Proto.member "grades" j
    | Error e -> Alcotest.failf "stats is not JSON: %s" e
  in
  Alcotest.(check bool)
    "grades counter equals the stats snapshot" true
    (grades = Some (Proto.Num (float_of_int (sample "jfeed_grades_total"))));
  Alcotest.(check int) "+Inf bucket = count" 3
    (sample {|jfeed_grade_latency_ms_bucket{le="+Inf"}|});
  Alcotest.(check int) "count sample" 3
    (sample "jfeed_grade_latency_ms_count");
  (* Cumulative buckets are monotone and the last finite bound holds
     every sub-1000ms observation. *)
  Alcotest.(check int) "le=1000 holds 2 of 3" 2
    (sample {|jfeed_grade_latency_ms_bucket{le="1000"}|});
  check "terminated by # EOF" true
    (match List.rev lines with "# EOF" :: _ -> true | _ -> false);
  check "histogram typed" true
    (List.mem "# TYPE jfeed_grade_latency_ms histogram" lines)

let slow_entry name ms =
  {
    Proto.s_rid = None;
    s_assignment = name;
    s_ms = ms;
    s_outcome = "graded";
    s_stages = [ ("parse", 0.1) ];
  }

let names log = List.map (fun (e : Proto.slow_entry) -> e.Proto.s_assignment) log

let test_slowlog_ring () =
  let m = Metrics.create () in
  for i = 1 to 25 do
    Metrics.record_slow m
      (slow_entry (Printf.sprintf "a%d" i) (float_of_int ((i * 7919) mod 100)))
  done;
  let log = Metrics.slowlog m in
  Alcotest.(check int) "capped" Metrics.slowlog_cap (List.length log);
  let ms = List.map (fun (e : Proto.slow_entry) -> e.Proto.s_ms) log in
  check "sorted slowest-first" true (List.sort (fun a b -> compare b a) ms = ms);
  (* Ties keep the older entry first, and a newcomer that only ties the
     last entry of a full log does not evict it. *)
  let tie = Metrics.create () in
  Metrics.record_slow tie (slow_entry "old" 5.0);
  Metrics.record_slow tie (slow_entry "new" 5.0);
  Alcotest.(check (list string)) "older tie first" [ "old"; "new" ]
    (names (Metrics.slowlog tie));
  let full = Metrics.create () in
  for i = 1 to Metrics.slowlog_cap + 1 do
    Metrics.record_slow full (slow_entry (Printf.sprintf "t%d" i) 5.0)
  done;
  Alcotest.(check (list string)) "a tying newcomer is not kept"
    (List.init Metrics.slowlog_cap (fun i -> Printf.sprintf "t%d" (i + 1)))
    (names (Metrics.slowlog full));
  (* Response renders as one valid JSON line. *)
  match Proto.parse_json (Proto.slowlog_response ~id:"x" log) with
  | Ok j ->
      check "n field" true
        (Proto.member "n" j = Some (Proto.Num (float_of_int Metrics.slowlog_cap)))
  | Error e -> Alcotest.failf "slowlog response not JSON: %s" e

let suite =
  [
    Alcotest.test_case "disabled sink is nil" `Quick test_disabled_is_nil;
    Alcotest.test_case "ambient trace install/restore" `Quick
      test_ambient_default_disabled;
    Alcotest.test_case "span nesting and attrs" `Quick test_span_nesting;
    Alcotest.test_case "counters accumulate in first-use order" `Quick
      test_counters_accumulate_in_order;
    Alcotest.test_case "rollup truncates at ':'" `Quick
      test_rollup_truncates_at_colon;
    Alcotest.test_case "chrome trace_event shape" `Quick
      test_chrome_json_shape;
    Alcotest.test_case "summary json shape" `Quick test_summary_json_shape;
    Alcotest.test_case "budget per-stage accounting" `Quick
      test_budget_spent_by_sums;
    Alcotest.test_case "tracing is pure observation (corpus, jobs 1 and 4)"
      `Slow test_tracing_is_pure_observation;
    Alcotest.test_case "prometheus exposition coherence" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "slowlog ring" `Quick test_slowlog_ring;
  ]
