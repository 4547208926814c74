(* Self-tests of the serving benchmark: stream determinism, percentile
   rules, /proc parsing and the traced run's add-up check. *)

open Servebench

let workload name = Option.get (Workload.find name)

let stream_deterministic () =
  List.iter
    (fun name ->
      let w = workload name in
      let a = Workload.generate w ~seed:7 ~count:12 in
      let b = Workload.generate w ~seed:7 ~count:12 in
      let c = Workload.generate w ~seed:8 ~count:12 in
      Alcotest.(check string) (name ^ ": same seed, same stream") (Workload.digest a)
        (Workload.digest b);
      Alcotest.(check bool) (name ^ ": another seed, another stream") true
        (Workload.digest a <> Workload.digest c);
      Alcotest.(check (result unit string)) (name ^ ": properties hold") (Ok ())
        (Workload.check a))
    [ "fresh-tests"; "fresh-static"; "resubmit" ]

let stream_properties_checked () =
  let st = Workload.generate (workload "fresh-static") ~seed:3 ~count:6 in
  let dup = { st with Workload.lines = Array.append st.lines [| st.lines.(0) |] } in
  Alcotest.(check bool) "a repeated key is refused" true (Result.is_error (Workload.check dup));
  let rs = Workload.generate (workload "resubmit") ~seed:3 ~count:6 in
  let stray = { rs with Workload.lines = Array.append rs.lines [| st.lines.(0) |];
                        origin = Array.append rs.origin [| 0 |] } in
  Alcotest.(check bool) "a resubmission outside the warm set is refused" true
    (Result.is_error (Workload.check stray))

let percentiles () =
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  Alcotest.(check (float 0.0)) "p50 of 1..10 is the 5th" 5.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 0.0)) "p90 of 1..10 is the 9th" 9.0 (Stats.percentile 90.0 xs);
  Alcotest.(check (float 0.0)) "p100 is the maximum" 10.0 (Stats.percentile 100.0 xs);
  Alcotest.(check (float 0.0)) "p1 is the minimum" 1.0 (Stats.percentile 1.0 xs);
  let n = 1000 in
  let lat = Array.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (result (float 0.0) string)) "p99 of 1000 samples is rank 990"
    (Ok 990.0) (Stats.p99 lat);
  lat.(0) <- infinity;
  Alcotest.(check (result (float 0.0) string)) "a failure counts as +inf" (Ok 991.0)
    (Stats.p99 lat);
  Alcotest.(check bool) "999 samples leave 9 beyond p99: refused" true
    (Result.is_error (Stats.p99 (Array.sub lat 0 999)))

let proc_parsing () =
  let stat =
    "4242 (a (weird) name) S 1 4242 4242 0 -1 4194560 1234 0 0 0 517 83 0 0 20 0 3 0 999 \
     123456 789 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
  in
  Alcotest.(check (result (pair int int) string)) "utime, stime" (Ok (517, 83))
    (Procfs.parse_pid_stat stat);
  Alcotest.(check bool) "truncated stat refused" true
    (Result.is_error (Procfs.parse_pid_stat "1 (x) S 1 2"));
  let status = "Name:\tjfeed\nVmPeak:\t  200 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n" in
  Alcotest.(check (result int string)) "VmHWM" (Ok 51234)
    (Procfs.parse_status_kb "VmHWM" status);
  Alcotest.(check bool) "missing field refused" true
    (Result.is_error (Procfs.parse_status_kb "VmSwap" status));
  let proc_stat = "cpu  98856 0 8950 712262 857 0 336 14821 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n" in
  Alcotest.(check (result int string)) "aggregate steal" (Ok 14821) (Procfs.parse_steal proc_stat);
  (* and the live files of this process parse *)
  let pid = Unix.getpid () in
  Alcotest.(check bool) "own CPU time" true (Procfs.cpu_ms pid >= 0.0);
  Alcotest.(check bool) "own VmHWM" true (Procfs.status_kb pid "VmHWM" > 0);
  Alcotest.(check bool) "steal ticks" true (Procfs.steal_ticks () >= 0)

let metric r name =
  match List.find_opt (fun (n, _, _) -> n = name) r.Traced.metrics with
  | Some (_, _, v) -> v
  | None -> Alcotest.failf "no metric %s" name

let traced_run st =
  let payloads = Array.map Traced.pipeline_payload in
  Traced.run st ~warmup_payloads:(payloads st.Workload.warmup)
    ~expected:(payloads st.originals)
    ~latency_ms:(Array.make st.count 0.0) ~cpu_ms_per_req:0.0

(* The add-up check is a timing comparison, so it gets three tries on a
   machine busy with other tests. *)
let traced_adds_up () =
  let st = Workload.generate (workload "fresh-tests") ~seed:5 ~count:8 in
  let rec attempt k =
    let r = traced_run st in
    Alcotest.(check int) "replay payloads match the pipeline's" 0 r.Traced.mismatches;
    Alcotest.(check (float 0.0)) "fresh requests never hit" 0.0 (metric r "cache.hit_ratio");
    Alcotest.(check int) "every per-layer metric reported"
      (List.length Traced.metric_units) (List.length r.metrics);
    let pct = metric r "pipeline.unattributed_pct" in
    if Float.abs pct > 5.0 && k < 3 then attempt (k + 1)
    else
      Alcotest.(check bool)
        (Printf.sprintf "stages add up to the pipeline within 5%% (%.2f%%)" pct)
        true
        (Float.abs pct <= 5.0)
  in
  attempt 1

let () =
  Alcotest.run "servebench"
    [
      ( "workload",
        [
          Alcotest.test_case "stream deterministic per seed" `Quick stream_deterministic;
          Alcotest.test_case "stream properties checked" `Quick stream_properties_checked;
        ] );
      ("stats", [ Alcotest.test_case "nearest-rank percentiles" `Quick percentiles ]);
      ("procfs", [ Alcotest.test_case "stat and status parsing" `Quick proc_parsing ]);
      ("traced", [ Alcotest.test_case "add-up check on a tiny stream" `Quick traced_adds_up ]);
    ]
