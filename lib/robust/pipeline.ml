(** Total, budgeted grading entry points.  See pipeline.mli for the
    ladder contract. *)

open Jfeed_core
open Jfeed_java
module Budget = Jfeed_budget.Budget
module Bundles = Jfeed_kb.Bundles
module Runner = Jfeed_ftest.Runner
module Trace = Jfeed_trace.Trace

(* Convert any escaping exception into an error string.  Stack_overflow
   and Out_of_memory are named explicitly — they are the expected
   failure modes of adversarial submissions; everything else falls
   through to Printexc so that no exception whatsoever crosses the
   pipeline boundary. *)
let protect f =
  match f () with
  | v -> Ok v
  | exception Stack_overflow -> Error "stack overflow"
  | exception Out_of_memory -> Error "out of memory"
  | exception Invalid_argument m -> Error ("invalid argument: " ^ m)
  | exception Failure m -> Error m
  | exception e -> Error (Printexc.to_string e)

let parse_stage src =
  Trace.span (Trace.current ()) "parse" @@ fun () ->
  match Parser.parse_program_located src with
  | prog, srcmap -> Ok (prog, srcmap)
  | exception Parser.Parse_error (msg, line, col) ->
      Error
        {
          Outcome.stage = "parse";
          message = Printf.sprintf "parse error at %d:%d: %s" line col msg;
        }
  | exception Lexer.Lex_error (msg, line, col) ->
      Error
        {
          Outcome.stage = "lex";
          message = Printf.sprintf "lex error at %d:%d: %s" line col msg;
        }
  | exception e ->
      Error { Outcome.stage = "parse"; message = Printexc.to_string e }

let reasons_of_truncations ts =
  List.map
    (function
      | Grader.Matcher_exhausted id -> Outcome.Matcher_exhausted id
      | Grader.Pairing_exhausted -> Outcome.Pairing_exhausted)
    ts

(* Ladder rung 2/3: grade each expected method in isolation so one
   blown-up method cannot take down the whole report.  A method whose
   grading crashes is reported through its Not_expected comment set
   (rung 3: when every method crashes, this degenerates to parse-only
   diagnostics — the submission is still classified and scored). *)
let per_method_grade ?budget (spec : Grader.spec) prog crash_msg =
  let skipped = ref [] in
  let results =
    List.map
      (fun (q : Grader.method_spec) ->
        let single = { spec with Grader.a_methods = [ q ] } in
        match
          protect (fun () -> Grader.grade ?budget single prog)
        with
        | Ok r -> r
        | Error e ->
            skipped := Outcome.Method_skipped (q.Grader.q_name, e) :: !skipped;
            {
              Grader.comments = Grader.missing_comments q;
              score = 0.0;
              pairing = [ (q.Grader.q_name, None) ];
              truncations = [];
            })
      spec.Grader.a_methods
  in
  let comments = List.concat_map (fun r -> r.Grader.comments) results in
  let grading =
    {
      Grader.comments;
      score = Feedback.score comments;
      pairing = List.concat_map (fun r -> r.Grader.pairing) results;
      truncations =
        List.concat_map (fun r -> r.Grader.truncations) results
        |> List.sort_uniq compare;
    }
  in
  let reasons =
    (Outcome.Crash_recovered crash_msg :: List.rev !skipped)
    @ reasons_of_truncations grading.Grader.truncations
  in
  (grading, reasons)

let grade_prog ?budget (spec : Grader.spec) prog =
  match protect (fun () -> Grader.grade ?budget spec prog) with
  | Ok r -> (r, reasons_of_truncations r.Grader.truncations)
  | Error msg -> per_method_grade ?budget spec prog msg

let outcome_of ~tests ~diags grading reasons =
  let report = { Outcome.grading; tests; diags } in
  if reasons = [] then Outcome.Graded report
  else Outcome.Degraded (report, reasons)

(* The analysis passes are total by contract, but the pipeline trusts
   nothing: a crash here yields an empty diagnostic list, never a
   changed outcome.  [oracle_degrees] (the reference solution's static
   cost signature) arms the efficiency pass; without it the
   abstract-interpretation passes still run but no efficiency verdicts
   are possible. *)
let analyze_stage ?oracle_degrees (prog, srcmap) =
  Trace.span (Trace.current ()) "analysis" @@ fun () ->
  match
    protect (fun () ->
        Jfeed_absint.Passes.analyze_program ~srcmap ?oracle_degrees prog)
  with
  | Ok diags -> diags
  | Error _ -> []

(* The per-method polynomial degrees of the bundle's reference solution.
   Recomputed per assessment like the expected test outputs — the
   fixpoint over a reference method costs microseconds — so workers
   share no state. *)
let oracle_degrees (b : Bundles.t) =
  match
    protect (fun () ->
        Jfeed_absint.Passes.method_degrees
          (Parser.parse_program (Jfeed_gen.Spec.reference b.Bundles.gen)))
  with
  | Ok ds -> ds
  | Error _ -> []

let grade_guarded ?budget spec src =
  match parse_stage src with
  | Error d -> Outcome.Rejected d
  | Ok ((prog, _) as parsed) ->
      let diags = analyze_stage parsed in
      let grading, reasons = grade_prog ?budget spec prog in
      outcome_of ~tests:Outcome.Tests_not_run ~diags grading reasons

(* Functional testing under the shared budget.  A failing submission is
   a normal graded outcome; only an unrunnable suite or fuel exhaustion
   mid-test degrades. *)
let run_tests ?budget (b : Bundles.t) prog =
  Trace.span (Trace.current ()) "tests" @@ fun () ->
  match
    protect (fun () ->
        let reference =
          Parser.parse_program (Jfeed_gen.Spec.reference b.Bundles.gen)
        in
        let expected = Runner.expected_outputs b.Bundles.suite reference in
        Runner.run ?budget b.Bundles.suite ~expected prog)
  with
  | Ok Runner.Pass -> (Outcome.Tests_passed, [])
  | Ok (Runner.Fail { case; reason }) ->
      let fuel_died = reason = "error: fuel budget exhausted" in
      ( Outcome.Tests_failed (case, reason),
        if fuel_died then [ Outcome.Interp_exhausted ] else [] )
  | Error e -> (Outcome.Tests_not_run, [ Outcome.Tests_skipped e ])

let assess ?budget ?(with_tests = true) (b : Bundles.t) src =
  match parse_stage src with
  | Error d -> Outcome.Rejected d
  | Ok ((prog, _) as parsed) ->
      let diags =
        analyze_stage ~oracle_degrees:(oracle_degrees b) parsed
      in
      let grading, reasons = grade_prog ?budget b.Bundles.grading prog in
      let tests, test_reasons =
        if with_tests then run_tests ?budget b prog
        else (Outcome.Tests_not_run, [])
      in
      outcome_of ~tests ~diags grading (reasons @ test_reasons)

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)

type item = {
  file : string;
  outcome : Outcome.t;
  fuel_spent : int;
  trace : Trace.t;
}

type dedup_stats = { classes : int; replayed : int }

(* Process-wide dedup counters (monotone atomics), read by the serve
   metrics exposition alongside the plan counters. *)
let n_dedup_classes = Atomic.make 0
let n_dedup_replayed = Atomic.make 0
let dedup_classes () = Atomic.get n_dedup_classes
let dedup_replayed () = Atomic.get n_dedup_replayed

let note_dedup ~classes ~replayed =
  ignore (Atomic.fetch_and_add n_dedup_classes classes);
  ignore (Atomic.fetch_and_add n_dedup_replayed replayed)

type summary = {
  assignment : string;
  total : int;
  graded : int;
  degraded : int;
  rejected : int;
  fuel_limit : int option;
  dedup : dedup_stats option;
  items : item list;
}

let grade_submission ?fuel ?deadline_s ?rid ?with_tests
    ?(name = "<submission>") ?(trace = Trace.disabled) (b : Bundles.t) src =
  (* The single-submission serving entry: a fresh budget per call — the
     same per-submission isolation the batch driver gives each item —
     and total even against bugs in the pipeline itself.  The KB bundle
     is a static value, so a long-lived server pays no per-request
     loading cost. *)
  let budget =
    match (fuel, deadline_s) with
    | None, None -> Budget.unlimited ()
    | _ -> Budget.create ?fuel ?deadline_s ()
  in
  let assess_traced () =
    Trace.with_current trace (fun () ->
        match protect (fun () -> assess ~budget ?with_tests b src) with
        | Ok o -> o
        | Error e ->
            Outcome.Rejected { Outcome.stage = "internal"; message = e })
  in
  let outcome =
    match rid with
    | None -> assess_traced ()
    | Some rid ->
        (* Request-scoped: one root span carries the correlation id, so
           every stage span of this assessment is a descendant of a
           node naming the request it served. *)
        Trace.span trace ~attrs:[ ("rid", rid) ] "request" assess_traced
  in
  if Trace.enabled trace then
    List.iter
      (fun (stage, n) -> Trace.count trace ("fuel." ^ stage) n)
      (Budget.spent_by budget);
  { file = name; outcome; fuel_spent = Budget.spent budget; trace }

(* Replay a representative's item for another member of its equivalence
   class.  The grading report, test verdict, degradation reasons and
   fuel count are α-invariant — the matcher's search is structural, so
   two α-equivalent programs take the same steps to the same verdict —
   but analysis diagnostics quote source positions and variable names,
   which consistent renaming and reformatting *do* change.  So the
   member keeps the representative's grading/tests wholesale and re-runs
   only the (cheap, total) parse + analysis stages on its own bytes.
   Raw-fingerprint classes contain byte-identical sources only, so a
   [Rejected] outcome (whose diagnostic quotes exact positions) replays
   verbatim. *)
let replay_item ?oracle_degrees ~file ~src (r : item) =
  let member_diags () =
    match parse_stage src with
    | Ok parsed -> analyze_stage ?oracle_degrees parsed
    | Error _ -> []
  in
  let outcome =
    match r.outcome with
    | Outcome.Rejected _ -> r.outcome
    | Outcome.Graded rep ->
        Outcome.Graded { rep with Outcome.diags = member_diags () }
    | Outcome.Degraded (rep, reasons) ->
        Outcome.Degraded ({ rep with Outcome.diags = member_diags () }, reasons)
  in
  { r with file; outcome }

let run_batch ?fuel ?deadline_s ?with_tests ?(jobs = 1) ?(traced = false)
    ?(dedup = true) (b : Bundles.t) sources =
  let grade_one (file, src) =
    (* One fresh tracer per submission, created inside the worker so
       each Domain fills only its own buffers; the merge below is by
       input index (Pool.map's contract), hence deterministic. *)
    let trace = if traced then Trace.create () else Trace.disabled in
    match src with
    | Error e ->
        {
          file;
          outcome = Outcome.Rejected { Outcome.stage = "read"; message = e };
          fuel_spent = 0;
          trace;
        }
    | Ok src ->
        grade_submission ?fuel ?deadline_s ?with_tests ~name:file ~trace b
          src
  in
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let items, dedup_stats =
    if not dedup then
      ( Array.to_list (Jfeed_parallel.Pool.map ~jobs ~f:grade_one srcs),
        None )
    else begin
      (* Group the batch into α-equivalence classes by the same
         fingerprint the serve cache keys on, grade the first member of
         each class (fuel charged once, under that representative's own
         fresh budget), and replay everyone else.  The work list is
         fixed before any grading starts and results merge by input
         index, so the dedup path is jobs-invariant like the plain
         one. *)
      let rep = Array.init n (fun i -> i) in
      let tbl = Hashtbl.create (2 * n) in
      Array.iteri
        (fun i (_, src) ->
          match src with
          | Error _ -> ()
          | Ok s ->
              let fp =
                Jfeed_java.Fingerprint.(to_string (of_source s))
              in
              (match Hashtbl.find_opt tbl fp with
              | Some j -> rep.(i) <- j
              | None -> Hashtbl.add tbl fp i))
        srcs;
      let work =
        Array.of_list
          (List.filter (fun i -> rep.(i) = i) (List.init n Fun.id))
      in
      let graded =
        Jfeed_parallel.Pool.map ~jobs ~f:(fun i -> grade_one srcs.(i)) work
      in
      let by_idx = Hashtbl.create (2 * Array.length work) in
      Array.iteri (fun k i -> Hashtbl.add by_idx i graded.(k)) work;
      let replayed = ref 0 in
      let od = oracle_degrees b in
      let items =
        List.init n (fun i ->
            if rep.(i) = i then Hashtbl.find by_idx i
            else begin
              incr replayed;
              let file, src = srcs.(i) in
              let src = match src with Ok s -> s | Error e -> e in
              replay_item ~oracle_degrees:od ~file ~src
                (Hashtbl.find by_idx rep.(i))
            end)
      in
      (items, Some { classes = Hashtbl.length tbl; replayed = !replayed })
    end
  in
  (match dedup_stats with
  | Some d ->
      Trace.count (Trace.current ()) "dedup.classes" d.classes;
      Trace.count (Trace.current ()) "dedup.replayed" d.replayed;
      note_dedup ~classes:d.classes ~replayed:d.replayed
  | None -> ());
  let count cls =
    List.length
      (List.filter (fun it -> Outcome.classify it.outcome = cls) items)
  in
  {
    assignment = b.Bundles.grading.Grader.a_id;
    total = List.length items;
    graded = count "graded";
    degraded = count "degraded";
    rejected = count "rejected";
    fuel_limit = fuel;
    dedup = dedup_stats;
    items;
  }

let summary_to_json ?(traces = true) s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"assignment":"%s","total":%d,"graded":%d,"degraded":%d,"rejected":%d|}
       (Trace.json_escape s.assignment)
       s.total s.graded s.degraded s.rejected);
  (match s.fuel_limit with
  | Some f -> Buffer.add_string buf (Printf.sprintf {|,"fuel":%d|} f)
  | None -> ());
  (match s.dedup with
  | Some d ->
      Buffer.add_string buf
        (Printf.sprintf {|,"dedup":{"classes":%d,"replayed":%d}|} d.classes
           d.replayed)
  | None -> ());
  Buffer.add_string buf {|,"submissions":[|};
  List.iteri
    (fun i it ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n  ";
      let trace = if traces then it.trace else Jfeed_trace.Trace.disabled in
      let line = Outcome.to_json ~file:it.file ~trace it.outcome in
      (* Splice the per-item fuel in only under a finite budget, so
         unbudgeted output is byte-stable. *)
      match s.fuel_limit with
      | Some _ ->
          let body = String.sub line 0 (String.length line - 1) in
          Buffer.add_string buf
            (Printf.sprintf {|%s,"fuel":%d}|} body it.fuel_spent)
      | None -> Buffer.add_string buf line)
    s.items;
  Buffer.add_string buf "\n]}";
  Buffer.contents buf

let exit_code s = if s.degraded = 0 && s.rejected = 0 then 0 else 1
