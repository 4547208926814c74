(** Benchmark harness — regenerates every table and figure of the paper's
    evaluation (§VI):

    - [table1]  — the paper's Table I: columns S, L, T, P, C, M, D per
      assignment, measured over a deterministic sample of each submission
      space (use [--full] to sweep entire spaces, [--sample N] to resize);
      [--explain] breaks the discrepancies down by cause (§VI-B).
    - [micro]   — Bechamel micro-benchmarks of the pattern-matching time
      per assignment (column M's headline: milliseconds per submission).
    - [compare] — the §VI-C comparison against the CLARA-like and
      Sketch-like baselines: input-size sensitivity, repair-depth blowup,
      and the Fig. 8 reference-matching failure.
    - [ablation], [scaling] — the §VII extensions' effect on the
      discrepancies, and matching time against submission size.
    - [repair], [analyze] — deterministic reports (counts only, no
      timings) of the repair rate over injected mutants and of the
      static analysis' yield; test/cram/perf.t pins both.
    - [load] — the open-loop overload sweep, written to BENCH_load.json.

    Running with no arguments executes table1, micro, compare, ablation
    and scaling with default sizes.  An unknown subcommand or option is
    a usage error (exit 2). *)

open Jfeed_kb
open Jfeed_core

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rate num den =
  if den > 0 then float_of_int num /. float_of_int den else 0.0

let feedback_positive (r : Grader.result) =
  List.for_all (fun c -> c.Feedback.verdict = Feedback.Correct) r.Grader.comments

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)

type row = {
  id : string;
  s : int;
  l : float;
  t : float;
  p : int;
  c : int;
  m : float;
  d : int;
  sampled : int;
  causes : (string * int) list;
}

let table1_row ~sample ~seed (b : Bundles.t) =
  let spec = b.Bundles.gen in
  let total = Jfeed_gen.Spec.size spec in
  let indices = Jfeed_gen.Spec.sample_indices spec ~n:sample ~seed in
  let reference =
    Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference spec)
  in
  let expected = Jfeed_ftest.Runner.expected_outputs b.suite reference in
  let lines = ref 0 and t_total = ref 0.0 and m_total = ref 0.0 in
  let d = ref 0 in
  let causes = Hashtbl.create 8 in
  let n = List.length indices in
  List.iter
    (fun idx ->
      let digits = Jfeed_gen.Spec.decode spec idx in
      let src = spec.Jfeed_gen.Spec.render digits in
      lines :=
        !lines
        + List.length
            (List.filter
               (fun l -> String.trim l <> "")
               (String.split_on_char '\n' src));
      let prog = Jfeed_java.Parser.parse_program src in
      let fpass, t_time =
        time (fun () -> Jfeed_ftest.Runner.passes b.suite ~expected prog)
      in
      let result, m_time = time (fun () -> Grader.grade b.grading prog) in
      t_total := !t_total +. t_time;
      m_total := !m_total +. m_time;
      if fpass <> feedback_positive result then begin
        incr d;
        let cause =
          match Jfeed_gen.Spec.deviations spec digits with
          | [] -> "all-good-combination"
          | [ (tag, label, _) ] -> tag ^ "=" ^ label
          | _ -> "combination"
        in
        Hashtbl.replace causes cause
          (1 + Option.value ~default:0 (Hashtbl.find_opt causes cause))
      end)
    indices;
  {
    id = b.Bundles.grading.Grader.a_id;
    s = total;
    l = float_of_int !lines /. float_of_int n;
    t = !t_total /. float_of_int n;
    p = List.length (Bundles.patterns b);
    c = List.length (Bundles.constraints b);
    m = !m_total /. float_of_int n;
    d = !d;
    sampled = n;
    causes =
      List.sort
        (fun (_, a) (_, b) -> compare b a)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) causes []);
  }

let print_table1 ~explain rows =
  Printf.printf
    "\nTable I — experimental results (measured over deterministic samples)\n";
  Printf.printf "%-20s %10s %6s %9s %3s %3s %9s %6s/%-6s %9s\n" "Assignment"
    "S" "L" "T" "P" "C" "M" "D" "sample" "D-est";
  List.iter
    (fun r ->
      let rate = float_of_int r.d /. float_of_int r.sampled in
      Printf.printf "%-20s %10d %6.2f %8.4fs %3d %3d %8.5fs %6d/%-6d %9.0f\n"
        r.id r.s r.l r.t r.p r.c r.m r.d r.sampled
        (rate *. float_of_int r.s);
      if explain && r.causes <> [] then
        List.iter
          (fun (cause, count) -> Printf.printf "    D cause: %-40s %6d\n" cause count)
          r.causes)
    rows;
  let avg f =
    List.fold_left (fun a r -> a +. f r) 0.0 rows
    /. float_of_int (List.length rows)
  in
  Printf.printf "%-20s %10.0f %6.2f %8.4fs %3.0f %3.0f %8.5fs\n" "average"
    (avg (fun r -> float_of_int r.s))
    (avg (fun r -> r.l))
    (avg (fun r -> r.t))
    (avg (fun r -> float_of_int r.p))
    (avg (fun r -> float_of_int r.c))
    (avg (fun r -> r.m));
  Printf.printf
    "(S exact; L/T/M/D measured on the sample; D-est extrapolates the \
     discrepancy rate to the full space.)\n"

let table1 ~sample ~seed ~full ~explain () =
  let rows =
    List.map
      (fun b ->
        let sample =
          if full then Jfeed_gen.Spec.size b.Bundles.gen else sample
        in
        table1_row ~sample ~seed b)
      Bundles.all
  in
  print_table1 ~explain rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let tests =
    List.map
      (fun (b : Bundles.t) ->
        let spec = b.Bundles.gen in
        (* A deterministic mid-space submission, pre-parsed: the staged
           benchmark measures pure matching (EPDG + Algorithms 1 and 2). *)
        let idx = Jfeed_gen.Spec.size spec / 2 in
        let prog =
          Jfeed_java.Parser.parse_program
            (Jfeed_gen.Spec.source_of_index spec idx)
        in
        Test.make
          ~name:b.Bundles.grading.Grader.a_id
          (Staged.stage (fun () -> ignore (Grader.grade b.Bundles.grading prog))))
      Bundles.all
  in
  let test = Test.make_grouped ~name:"match" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf
    "\nPattern-matching micro-benchmarks (Bechamel, per submission)\n";
  let entries =
    Hashtbl.fold (fun name est acc -> (name, est) :: acc) results []
  in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] ->
          Printf.printf "  %-36s %12.0f ns  (%.4f ms)\n" name ns (ns /. 1e6)
      | _ -> Printf.printf "  %-36s (no estimate)\n" name)
    (List.sort compare entries)

(* ------------------------------------------------------------------ *)
(* repair: repair rate over the fault-injected mutant corpus           *)

(* Inject single edits from the shared error-model catalog into every
   assignment's reference solution, keep the mutants that actually fail
   the functional tests, and count how often — and after how many
   screened candidates — the repair search finds a passing fix.  The
   catalog is closed under inverses, so the interesting numbers are the
   rate (does the search reach the inverse within budget?) and the
   median candidates screened (how well the KB-guided priority order
   front-loads it).  The report holds counts only, so it is byte-stable
   and test/cram/perf.t pins it whole. *)
let repair ~sample ~seed ~jobs () =
  let module R = Jfeed_repair.Repair in
  let median xs =
    match List.sort compare xs with
    | [] -> 0
    | sorted -> List.nth sorted (List.length sorted / 2)
  in
  let identical = ref true in
  Printf.printf "Repair of single-edit mutants (sample %d, seed %d)\n" sample
    seed;
  Printf.printf "%-20s %7s %7s %8s %6s %6s\n" "Assignment" "mutants" "failing"
    "repaired" "rate" "median";
  let print_row id (m, f, r, med) =
    Printf.printf "%-20s %7d %7d %8d %6.3f %6d\n" id m f r (rate r f) med
  in
  let rows =
    List.map
      (fun (b : Bundles.t) ->
        let base = Jfeed_gen.Spec.reference b.Bundles.gen in
        let mutants =
          List.filter_map
            (fun i -> Jfeed_gen.Mutate.fault_inject ~seed:(seed + i) base)
            (List.init sample Fun.id)
        in
        let failing = ref 0 and repaired = ref 0 and tried = ref [] in
        List.iter
          (fun (msrc, _fault) ->
            let o = R.search ~jobs:1 b msrc in
            match o.R.status with
            | R.Already_passing | R.Unrepairable _ ->
                (* the injected edit did not change observable behaviour
                   (dead code, compensating tests) — not a failing
                   mutant, so not part of the rate *)
                ()
            | R.Repaired | R.No_repair -> (
                incr failing;
                (* the parallel search must reproduce the sequential
                   outcome byte for byte *)
                if
                  jobs > 1 && R.to_json (R.search ~jobs b msrc) <> R.to_json o
                then identical := false;
                match o.R.hint with
                | Some h ->
                    incr repaired;
                    tried := h.R.h_rank :: !tried
                | None -> tried := o.R.candidates :: !tried))
          mutants;
        let row = (List.length mutants, !failing, !repaired, median !tried) in
        print_row b.Bundles.grading.Grader.a_id row;
        row)
      Bundles.all
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  print_row "total"
    ( sum (fun (m, _, _, _) -> m),
      sum (fun (_, f, _, _) -> f),
      sum (fun (_, _, r, _) -> r),
      median
        (List.concat_map
           (fun (_, f, _, med) -> if f > 0 then [ med ] else [])
           rows) );
  Printf.printf
    "(rate = repaired/failing; median = candidates screened up to the fix, \
     or in all when none passed;\n\
    \ the total's median is the median of the assignments' medians.)\n";
  if jobs > 1 then begin
    Printf.printf "--jobs %d outcomes identical to --jobs 1: %b\n" jobs
      !identical;
    if not !identical then exit 1
  end

(* ------------------------------------------------------------------ *)
(* analyze: the static-analysis yield                                  *)

(* Run the full ten-pass analysis — the flow passes plus the interval
   abstract interpretation — over a deterministic sample of every
   assignment, with each reference solution as the efficiency oracle,
   and report its yield: findings per pass, and the fraction of loops
   whose iteration bound the engine classifies (the bound-inference hit
   rate).  Counts only, so test/cram/perf.t pins the report whole. *)
let analyze ~sample ~seed () =
  let module P = Jfeed_absint.Passes in
  Printf.printf "Static analysis, ten passes (sample %d, seed %d)\n" sample
    seed;
  Printf.printf "%-20s %5s %6s %8s %6s  %s\n" "Assignment" "subs" "loops"
    "bounded" "rate" "findings";
  let print_row id (n, loops, bounded, counts) =
    let found =
      List.filter_map
        (fun (pass, k) ->
          if k > 0 then Some (Printf.sprintf "%s %d" pass k) else None)
        counts
    in
    Printf.printf "%-20s %5d %6d %8d %6.3f  %s\n" id n loops bounded
      (rate bounded loops)
      (if found = [] then "-" else String.concat ", " found)
  in
  let rows =
    List.map
      (fun (b : Bundles.t) ->
        let spec = b.Bundles.gen in
        let oracle_degrees =
          P.method_degrees
            (Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference spec))
        in
        let progs =
          List.map
            (fun idx ->
              Jfeed_java.Parser.parse_program
                (Jfeed_gen.Spec.source_of_index spec idx))
            (Jfeed_gen.Spec.sample_indices spec ~n:sample ~seed)
        in
        let loops, bounded =
          List.fold_left
            (fun (l, c) prog ->
              let l', c' = P.bound_stats prog in
              (l + l', c + c'))
            (0, 0) progs
        in
        let diags =
          List.concat_map (fun p -> P.analyze_program ~oracle_degrees p) progs
        in
        let row = (List.length progs, loops, bounded, P.count_by_pass diags) in
        print_row b.Bundles.grading.Grader.a_id row;
        row)
      Bundles.all
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  print_row "total"
    ( sum (fun (n, _, _, _) -> n),
      sum (fun (_, l, _, _) -> l),
      sum (fun (_, _, c, _) -> c),
      List.map
        (fun pass ->
          ( pass,
            sum (fun (_, _, _, counts) ->
                Option.value ~default:0 (List.assoc_opt pass counts)) ))
        P.all_pass_ids );
  Printf.printf
    "(rate = bounded/loops, the bound-inference hit rate; a pass not \
     listed found nothing.)\n"

(* ------------------------------------------------------------------ *)
(* load: the open-loop overload benchmark (BENCH_load.json)            *)

(* Drive the {e concurrent} socket daemon with an open-loop arrival
   process — requests fire on schedule whether or not earlier ones were
   answered, the deadline-night model — across a sweep of arrival
   rates, and record per-rate completions, sheds, degraded admissions,
   cache hits and latency percentiles.  Latency is measured from each
   request's {e intended} arrival time, so queueing delay is charged to
   the server (no coordinated omission). *)

let load_json ~rates ~requests ~dup_pct ~conns ~jobs ~queue_cap ~watermark
    ~shed_fuel ~seed () =
  let module Server = Jfeed_service.Server in
  let module Proto = Jfeed_service.Proto in
  let module Sysx = Jfeed_service.Sysx in
  let b = Bundles.assignment1 in
  let spec = b.Bundles.gen in
  let base_config =
    {
      Server.default_config with
      jobs;
      with_tests = false;
      queue_cap;
      watermark = Some watermark;
      shed_fuel = Some shed_fuel;
    }
  in
  (* One full sweep against a fresh daemon.  Returns the per-rate JSON
     rows, the daemon's cumulative shed count and the summed wall time
     — the sweep runs twice, once bare and once with the event log +
     tail sampling on, and the wall-clock ratio is the telemetry
     overhead figure. *)
  let run_sweep ~quiet ~tag config =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "jfeed-load-%s-%d.sock" tag (Unix.getpid ()))
  in
  let server = Domain.spawn (fun () -> Server.serve_socket config path) in
  let rec wait_sock n =
    if n = 0 then failwith "load: daemon socket never appeared"
    else if Sys.file_exists path then ()
    else begin
      Sysx.sleep 0.02;
      wait_sock (n - 1)
    end
  in
  wait_sock 250;
  let fds =
    Array.init conns (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        Unix.set_nonblock fd;
        fd)
  in
  let parts = Array.init conns (fun _ -> Buffer.create 4096) in
  (* Pull whatever the socket has and hand complete lines to [k];
     partial tails wait in [parts] for the next readable event. *)
  let read_lines i k =
    let buf = Bytes.create 65536 in
    let rec pull () =
      match Sysx.read fds.(i) buf 0 (Bytes.length buf) with
      | `Read 0 -> ()
      | `Read n ->
          Buffer.add_subbytes parts.(i) buf 0 n;
          pull ()
      | `Again -> ()
    in
    pull ();
    let s = Buffer.contents parts.(i) in
    let rec split start =
      match String.index_from_opt s start '\n' with
      | Some nl ->
          k (String.sub s start (nl - start));
          split (nl + 1)
      | None ->
          Buffer.clear parts.(i);
          Buffer.add_substring parts.(i) s start (String.length s - start)
    in
    split 0
  in
  let send_all fd s =
    let bytes = Bytes.unsafe_of_string s in
    let len = Bytes.length bytes in
    let pos = ref 0 in
    while !pos < len do
      match Sysx.write fd bytes !pos (len - !pos) with
      | `Wrote n -> pos := !pos + n
      | `Again -> ignore (Sysx.select [] [ fd ] [] 0.1)
    done
  in
  let jnum j fields =
    let rec walk j = function
      | [] -> ( match j with Proto.Num n -> n | _ -> 0.0)
      | f :: rest -> (
          match Proto.member f j with
          | Some j' -> walk j' rest
          | None -> 0.0)
    in
    walk j fields
  in
  let get_stats () =
    send_all fds.(0) "{\"op\":\"stats\",\"id\":\"bench-stats\"}\n";
    let result = ref None in
    while !result = None do
      ignore (Sysx.select [ fds.(0) ] [] [] 1.0);
      read_lines 0 (fun line ->
          match Proto.parse_json line with
          | Ok j when Proto.member "op" j = Some (Proto.Str "stats") ->
              result := Some j
          | _ -> ())
    done;
    Option.get !result
  in
  let prev_degraded = ref 0.0 in
  let round idx rate =
    let n_unique = max 1 (requests * (100 - dup_pct) / 100) in
    let rseed = seed + (idx * 7919) in
    let uniques =
      Array.of_list
        (List.map
           (Jfeed_gen.Spec.source_of_index spec)
           (Jfeed_gen.Spec.sample_indices spec ~n:n_unique ~seed:rseed))
    in
    let n_unique = Array.length uniques in
    let source_of i =
      if i < n_unique then uniques.(i)
      else
        Jfeed_gen.Mutate.alpha_rename ~seed:(rseed + i)
          uniques.(i mod n_unique)
    in
    let line_of i =
      Printf.sprintf
        {|{"op":"grade","id":"q%d","assignment":"%s","source":"%s"}|} i
        b.Bundles.grading.Grader.a_id
        (Jfeed_trace.Trace.json_escape (source_of i))
      ^ "\n"
    in
    let outq = Array.init conns (fun _ -> Queue.create ()) in
    let off = Array.make conns 0 in
    let interval = 1.0 /. rate in
    let t0 = Unix.gettimeofday () in
    let sent = ref 0 and received = ref 0 in
    let shed = ref 0 and cached = ref 0 in
    let lats = ref [] in
    let t_last = ref t0 in
    while !received < requests do
      let now = Unix.gettimeofday () in
      (* Open loop: enqueue every request whose scheduled arrival has
         passed, even if the loop fell behind — bursts and all. *)
      while
        !sent < requests
        && now >= t0 +. (float_of_int !sent *. interval)
      do
        Queue.push (line_of !sent) outq.(!sent mod conns);
        incr sent
      done;
      let wrs = ref [] in
      Array.iteri
        (fun i fd -> if not (Queue.is_empty outq.(i)) then wrs := fd :: !wrs)
        fds;
      let timeout =
        if !sent < requests then
          max 0.0005 (t0 +. (float_of_int !sent *. interval) -. now)
        else 0.25
      in
      let rready, wready, _ =
        Sysx.select (Array.to_list fds) !wrs [] timeout
      in
      Array.iteri
        (fun i fd ->
          if List.mem fd wready then begin
            let blocked = ref false in
            while (not !blocked) && not (Queue.is_empty outq.(i)) do
              let head = Queue.peek outq.(i) in
              let len = String.length head - off.(i) in
              match
                Sysx.write fd (Bytes.unsafe_of_string head) off.(i) len
              with
              | `Wrote n ->
                  if n = len then begin
                    ignore (Queue.pop outq.(i));
                    off.(i) <- 0
                  end
                  else begin
                    off.(i) <- off.(i) + n;
                    blocked := true
                  end
              | `Again -> blocked := true
            done
          end)
        fds;
      Array.iteri
        (fun i fd ->
          if List.mem fd rready then
            read_lines i (fun line ->
                match Proto.parse_json line with
                | Ok j -> (
                    match Proto.member "id" j with
                    | Some (Proto.Str id)
                      when String.length id > 1 && id.[0] = 'q' -> (
                        match
                          int_of_string_opt
                            (String.sub id 1 (String.length id - 1))
                        with
                        | Some k ->
                            incr received;
                            t_last := Unix.gettimeofday ();
                            (match Proto.member "rejected" j with
                            | Some (Proto.Str "overloaded") -> incr shed
                            | _ ->
                                (match Proto.member "cached" j with
                                | Some (Proto.Bool true) -> incr cached
                                | _ -> ());
                                lats :=
                                  ((!t_last
                                   -. (t0 +. (float_of_int k *. interval)))
                                  *. 1000.0)
                                  :: !lats)
                        | None -> ())
                    | _ -> ())
                | Error _ -> ()))
        fds
    done;
    let stats = get_stats () in
    let cum_degraded = jnum stats [ "admission"; "degraded" ] in
    let degraded = int_of_float (cum_degraded -. !prev_degraded) in
    prev_degraded := cum_degraded;
    let wall = !t_last -. t0 in
    let sorted = Array.of_list !lats in
    Array.sort compare sorted;
    let completed = requests - !shed in
    let achieved =
      if wall > 0.0 then float_of_int completed /. wall else 0.0
    in
    if not quiet then
      Printf.printf
        "  rate %7.1f req/s: %d/%d completed, %d shed, %d degraded, %d \
         cached, p99 %.1f ms\n\
         %!"
        rate completed requests !shed degraded !cached
        (Jfeed_trace.Trace.nearest_rank sorted 0.99);
    ( Printf.sprintf
        {|{"rate_rps":%g,"requests":%d,"completed":%d,"shed":%d,"degraded":%d,"cached":%d,"p50_ms":%.3g,"p95_ms":%.3g,"p99_ms":%.3g,"achieved_rps":%.2f,"wall_s":%.4f}|}
        rate requests completed !shed degraded !cached
        (Jfeed_trace.Trace.nearest_rank sorted 0.50)
        (Jfeed_trace.Trace.nearest_rank sorted 0.95)
        (Jfeed_trace.Trace.nearest_rank sorted 0.99)
        achieved wall,
      wall )
  in
  if not quiet then
    Printf.printf "open-loop load sweep (%d conns, queue cap %d):\n%!" conns
      queue_cap;
  let rounds = List.mapi round rates in
  let rows = List.map fst rounds in
  let wall_sum = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 rounds in
  let final = get_stats () in
  let total_shed = int_of_float (jnum final [ "admission"; "shed" ]) in
  send_all fds.(0) "{\"op\":\"shutdown\"}\n";
  Domain.join server;
  Array.iter (fun fd -> try Unix.close fd with _ -> ()) fds;
  (rows, total_shed, wall_sum)
  in
  let rows, total_shed, wall_base =
    run_sweep ~quiet:false ~tag:"base" base_config
  in
  (* Same sweep with the full telemetry stack on: durable event log,
     1-in-10 tail sampling, a 50 ms SLO.  Only its wall time matters. *)
  let ev_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "jfeed-load-events-%d" (Unix.getpid ()))
  in
  let ev_config =
    {
      base_config with
      Server.event_log = Some ev_dir;
      trace_sample = Some 10;
      slo_ms = Some 50.0;
    }
  in
  let _, _, wall_ev = run_sweep ~quiet:true ~tag:"events" ev_config in
  List.iter
    (fun f ->
      try Sys.remove (Filename.concat ev_dir f) with Sys_error _ -> ())
    [ "events.jsonl"; "events.jsonl.1" ];
  (try Sys.rmdir ev_dir with Sys_error _ -> ());
  let events_overhead_pct =
    if wall_base > 0.0 then 100.0 *. (wall_ev -. wall_base) /. wall_base
    else 0.0
  in
  Printf.printf "telemetry overhead: %.2f%% (wall %.3fs -> %.3fs)\n%!"
    events_overhead_pct wall_base wall_ev;
  let json =
    Printf.sprintf
      {|{"schema":"jfeed-bench-load/2","conns":%d,"queue_cap":%d,"watermark":%d,"shed_fuel":%d,"requests_per_rate":%d,"duplicate_ratio":%.2f,"jobs":%d,"sweep":[%s],"total_shed":%d,"events_overhead_pct":%.2f}|}
      conns queue_cap watermark shed_fuel requests
      (float_of_int dup_pct /. 100.0)
      jobs
      (String.concat ",\n " rows)
      total_shed events_overhead_pct
  in
  let oc = open_out "BENCH_load.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "BENCH_load.json written: %d rates x %d requests, %d shed \
                 in total\n"
    (List.length rates) requests total_shed

(* ------------------------------------------------------------------ *)
(* §VI-C comparison                                                    *)

let fig8_reference =
  {|
void assignment1(int[] a) {
    int o = 0;
    int i = 0;
    while (i < a.length) {
        if (i % 2 == 1)
            o += a[i];
        i++;
    }
    i = 0;
    int e = 1;
    while (i < a.length) {
        if (i % 2 == 0)
            e *= a[i];
        i++;
    }
    System.out.print(e);
    System.out.print(o);
}
|}

let fig8_submission =
  {|
void assignment1(int[] a) {
    int o = 0, e = 1;
    int i = 0;
    while (i < a.length) {
        if (i % 2 == 1)
            o += a[i];
        if (i % 2 == 0)
            e *= a[i];
        i++;
    }
    System.out.print(e);
    System.out.print(o);
}
|}

let compare_fig8 () =
  let parse = Jfeed_java.Parser.parse_program in
  let args =
    [ Jfeed_interp.Value.Varr
        [| Jfeed_interp.Value.Vint 3; Vint 4; Vint 5; Vint 6 |] ]
  in
  let tr src =
    fst
      (Jfeed_baselines.Clara_like.trace_of (parse src) ~entry:"assignment1"
         ~args)
  in
  let equivalent =
    Jfeed_baselines.Clara_like.equivalent (tr fig8_reference)
      (tr fig8_submission)
  in
  let ours =
    feedback_positive
      (Grader.grade Bundles.assignment1.Bundles.grading (parse fig8_submission))
  in
  Printf.printf "\n[compare] Fig. 8 — correct submission vs reordered reference\n";
  Printf.printf
    "  CLARA-like trace match: %b   (paper: fails — traces compared as a whole)\n"
    equivalent;
  Printf.printf "  our feedback positive:  %b   (order-independent patterns)\n"
    ours

let compare_input_size () =
  (* Our matching is static: its cost does not depend on the test inputs.
     CLARA must execute both programs and compare whole variable traces,
     whose length grows with the input (the paper's k = 100,000 timeout
     anecdote).  assignment1 with growing arrays makes the trace length
     linear in the input size. *)
  let b = Bundles.assignment1 in
  let parse = Jfeed_java.Parser.parse_program in
  let reference = parse (Jfeed_gen.Spec.reference b.Bundles.gen) in
  let submission = parse fig8_submission in
  Printf.printf
    "\n[compare] input-size sensitivity on assignment1 (seconds)\n";
  Printf.printf "  %-12s %14s %20s\n" "array size" "ours(match)"
    "clara(trace+compare)";
  List.iter
    (fun size ->
      let args =
        [ Jfeed_interp.Value.Varr
            (Array.init size (fun i -> Jfeed_interp.Value.Vint (i mod 7))) ]
      in
      let config =
        { Jfeed_interp.Interp.files = []; max_steps = 200_000_000 }
      in
      let _, ours =
        time (fun () -> Grader.grade b.Bundles.grading submission)
      in
      let _, clara =
        time (fun () ->
            let t_ref, _ =
              Jfeed_baselines.Clara_like.trace_of ~config reference
                ~entry:"assignment1" ~args
            in
            let t_sub, _ =
              Jfeed_baselines.Clara_like.trace_of ~config submission
                ~entry:"assignment1" ~args
            in
            ignore (Jfeed_baselines.Clara_like.equivalent t_ref t_sub))
      in
      Printf.printf "  %-12d %14.6f %20.6f\n" size ours clara)
    [ 10; 1_000; 20_000 ]

let compare_repairs () =
  (* AutoGrader/Sketch-style repair: the search blows up with the number
     of seeded errors; ours stays flat (the paper: "degrades considerably
     after four or more repairs"). *)
  let b = Bundles.assignment1 in
  let spec = b.Bundles.gen in
  let reference =
    Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference spec)
  in
  let expected = Jfeed_ftest.Runner.expected_outputs b.suite reference in
  (* Choice points fixable by the sketch rules: odd-init, even-init,
     loop-start, loop-bound, odd-guard parity, even-guard parity. *)
  let error_choices = [ 0; 1; 2; 3; 4 ] in
  Printf.printf
    "\n[compare] repair-count scalability on assignment1 (seconds)\n";
  Printf.printf "  %-8s %12s %12s %14s %8s\n" "errors" "ours" "sketch"
    "candidates" "found";
  List.iteri
    (fun i _ ->
      let n_errors = i + 1 in
      let digits = Array.make (Array.length spec.Jfeed_gen.Spec.choices) 0 in
      List.iteri (fun j c -> if j < n_errors then digits.(c) <- 1) error_choices;
      let prog =
        Jfeed_java.Parser.parse_program (spec.Jfeed_gen.Spec.render digits)
      in
      let _, ours = time (fun () -> Grader.grade b.Bundles.grading prog) in
      let result, sketch_time =
        time (fun () ->
            Jfeed_baselines.Sketch_like.repair ~suite:b.suite ~expected
              ~max_depth:n_errors prog)
      in
      let explored, found =
        match result with
        | Some r -> (r.Jfeed_baselines.Sketch_like.explored, true)
        | None -> (0, false)
      in
      Printf.printf "  %-8d %12.6f %12.6f %14d %8b\n" n_errors ours sketch_time
        explored found)
    error_choices

let compare_reference_count () =
  (* Quantify "multiple reference solutions are usually required … a
     reference solution per any possible variation": cluster the *correct*
     subspace of assignment1 by CLARA trace equivalence and count how many
     references CLARA would need, vs. our single knowledge base. *)
  let b = Bundles.assignment1 in
  let spec = b.Bundles.gen in
  (* Enumerate the all-good subspace directly (it is a tiny fraction of
     S): the cartesian product of each choice's Good options. *)
  let good_options =
    Array.map
      (fun (c : Jfeed_gen.Spec.choice) ->
        List.filter
          (fun i -> c.Jfeed_gen.Spec.quality.(i) = Jfeed_gen.Spec.Good)
          (List.init (Array.length c.Jfeed_gen.Spec.labels) Fun.id))
      spec.Jfeed_gen.Spec.choices
  in
  let correct = ref [] in
  let n_choices = Array.length good_options in
  let digits = Array.make n_choices 0 in
  let rec enum i =
    if List.length !correct >= 40 then ()
    else if i = n_choices then
      correct := Jfeed_gen.Spec.encode spec digits :: !correct
    else
      List.iter
        (fun o ->
          digits.(i) <- o;
          enum (i + 1))
        good_options.(i)
  in
  enum 0;
  let correct = List.rev !correct in
  let args =
    [ Jfeed_interp.Value.Varr
        [| Jfeed_interp.Value.Vint 3; Vint 4; Vint 5; Vint 6 |] ]
  in
  let traces =
    List.map
      (fun idx ->
        fst
          (Jfeed_baselines.Clara_like.trace_of
             (Jfeed_java.Parser.parse_program
                (Jfeed_gen.Spec.source_of_index spec idx))
             ~entry:"assignment1" ~args))
      correct
  in
  let clusters = Jfeed_baselines.Clara_like.cluster traces in
  let ours_all_accepted =
    List.for_all
      (fun idx ->
        feedback_positive
          (Grader.grade b.Bundles.grading
             (Jfeed_java.Parser.parse_program
                (Jfeed_gen.Spec.source_of_index spec idx))))
      correct
  in
  Printf.printf
    "\n[compare] references needed per correct variation (assignment1)\n";
  Printf.printf
    "  %d sampled correct variants → CLARA-like clusters (references \
     needed): %d\n"
    (List.length correct) (List.length clusters);
  Printf.printf
    "  our knowledge bases needed: 1 (all %d variants graded positive: %b)\n"
    (List.length correct) ours_all_accepted

let compare () =
  compare_fig8 ();
  compare_input_size ();
  compare_repairs ();
  compare_reference_count ()

(* ------------------------------------------------------------------ *)
(* Matching scalability in the submission size (§IV: the subgraph       *)
(* matching problem is NP-hard in general — O(n^m) worst case — but the *)
(* type-filtered search space and edge pruning keep real submissions    *)
(* flat).                                                               *)

let scaling () =
  (* Grow a submission by duplicating extra (pattern-irrelevant) loops
     around the correct Assignment 1 core and watch the matching time. *)
  (* Decoy loops that match none of Assignment 1's patterns (no parity
     guards, no cumulative +=/*=, no prints) — they only grow the search
     space Φ. *)
  let pad k =
    String.concat "\n"
      (List.init k (fun j ->
           Printf.sprintf
             "    int t%d = %d;\n\
             \    while (t%d > 1) {\n\
             \        t%d = t%d / 2;\n\
             \    }" j (7 + j) j j j))
  in
  let submission k =
    Printf.sprintf
      {|
void assignment1(int[] a) {
    int o = 0, e = 1;
    for (int i = 0; i < a.length; i++) {
        if (i %% 2 == 1)
            o += a[i];
        if (i %% 2 == 0)
            e *= a[i];
    }
%s
    System.out.println(o);
    System.out.println(e);
}
|}
      (pad k)
  in
  let b = Bundles.assignment1 in
  Printf.printf
    "\n[scaling] matching time vs. submission size (assignment1 + k decoy \
     loops)\n";
  Printf.printf "  %-8s %10s %12s %12s\n" "k" "EPDG nodes" "match (s)"
    "Λ preserved";
  List.iter
    (fun k ->
      let prog = Jfeed_java.Parser.parse_program (submission k) in
      let nodes =
        List.fold_left
          (fun acc (_, g) ->
            acc + Jfeed_graph.Digraph.node_count g.Jfeed_pdg.Epdg.graph)
          0
          (Jfeed_pdg.Epdg.of_program prog)
      in
      let result, t = time (fun () -> Grader.grade b.Bundles.grading prog) in
      Printf.printf "  %-8d %10d %12.6f %12b\n" k nodes t
        (feedback_positive result))
    [ 0; 4; 16; 64; 128 ]

(* ------------------------------------------------------------------ *)
(* Ablation: the §VII future-work extensions                           *)

(* Grade a sample of each assignment under four configurations and count
   discrepancies: the extensions should remove exactly the
   pattern-variability false negatives (negative feedback on functionally
   correct submissions) without masking real errors. *)
let ablation ~sample ~seed () =
  Printf.printf
    "\nAblation — §VII extensions (discrepancies per %d-sample)\n" sample;
  Printf.printf "%-20s %10s %12s %10s %8s\n" "Assignment" "baseline"
    "+normalize" "+variants" "+both";
  let configs =
    [ (false, false); (true, false); (false, true); (true, true) ]
  in
  List.iter
    (fun (b : Bundles.t) ->
      let spec = b.Bundles.gen in
      let indices = Jfeed_gen.Spec.sample_indices spec ~n:sample ~seed in
      let reference =
        Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference spec)
      in
      let expected = Jfeed_ftest.Runner.expected_outputs b.suite reference in
      let programs =
        List.map
          (fun idx ->
            let prog =
              Jfeed_java.Parser.parse_program
                (Jfeed_gen.Spec.source_of_index spec idx)
            in
            (prog, Jfeed_ftest.Runner.passes b.suite ~expected prog))
          indices
      in
      let count (normalize, use_variants) =
        List.length
          (List.filter
             (fun (prog, fpass) ->
               fpass
               <> feedback_positive
                    (Grader.grade ~normalize ~use_variants b.grading prog))
             programs)
      in
      match List.map count configs with
      | [ base; norm; var; both ] ->
          Printf.printf "%-20s %10d %12d %10d %8d\n"
            b.Bundles.grading.Grader.a_id base norm var both
      | _ -> assert false)
    Bundles.all;
  Printf.printf
    "(Each extension may only reduce discrepancies — it widens what the\n\
    \ knowledge base accepts without masking functional errors.)\n"

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let subcommands =
  [ "table1"; "micro"; "repair"; "analyze"; "load"; "compare"; "ablation";
    "scaling" ]

(* Every option some subcommand reads: switches, then options that take a
   value.  Anything else is a usage error. *)
let switches = [ "--full"; "--explain" ]

let valued =
  [ "--sample"; "--seed"; "--jobs"; "--rates"; "--requests"; "--dup";
    "--conns"; "--queue-cap"; "--watermark"; "--shed-fuel" ]

let usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("jfeed-bench: " ^ msg);
      exit 2)
    fmt

let () =
  let cmd, rest =
    match List.tl (Array.to_list Sys.argv) with
    | c :: rest when not (String.starts_with ~prefix:"-" c) ->
        if List.mem c subcommands then (Some c, rest)
        else
          usage "unknown subcommand %S (one of %s)" c
            (String.concat ", " subcommands)
    | rest -> (None, rest)
  in
  let rec parse = function
    | [] -> []
    | f :: rest when List.mem f switches -> (f, "") :: parse rest
    | f :: rest when List.mem f valued -> (
        match rest with
        | v :: rest when not (String.starts_with ~prefix:"--" v) ->
            (f, v) :: parse rest
        | _ -> usage "%s needs a value" f)
    | a :: _ -> usage "unknown argument %S" a
  in
  let opts = parse rest in
  let has f = List.mem_assoc f opts in
  let opt name default =
    match List.assoc_opt name opts with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> usage "%s expects an integer, got %S" name v)
  in
  let sample = opt "--sample" 150 in
  let seed = opt "--seed" 42 in
  let jobs = opt "--jobs" 4 in
  match cmd with
  | Some "table1" ->
      table1 ~sample ~seed ~full:(has "--full") ~explain:(has "--explain") ()
  | Some "micro" -> micro ()
  | Some "repair" ->
      (* The corpus grows multiplicatively (assignments × mutants ×
         candidate screenings), so repair has its own, smaller default
         sample. *)
      repair ~sample:(opt "--sample" 8) ~seed ~jobs ()
  | Some "analyze" -> analyze ~sample:(opt "--sample" 50) ~seed ()
  | Some "load" ->
      (* The default sweep straddles the single-node service rate so the
         committed record shows all three admission regimes: under
         capacity, degraded admission, hard shedding. *)
      let rates =
        List.filter_map float_of_string_opt
          (String.split_on_char ','
             (Option.value ~default:"500,2000,8000"
                (List.assoc_opt "--rates" opts)))
      in
      load_json ~rates
        ~requests:(opt "--requests" 200)
        ~dup_pct:(opt "--dup" 50)
        ~conns:(opt "--conns" 4)
        ~jobs
        ~queue_cap:(opt "--queue-cap" 16)
        ~watermark:(opt "--watermark" 8)
        ~shed_fuel:(opt "--shed-fuel" 20000)
        ~seed ()
  | Some "compare" -> compare ()
  | Some "ablation" -> ablation ~sample ~seed ()
  | Some "scaling" -> scaling ()
  | _ ->
      table1 ~sample ~seed ~full:false ~explain:true ();
      micro ();
      compare ();
      ablation ~sample:100 ~seed ();
      scaling ()
