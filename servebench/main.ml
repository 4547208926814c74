(* servebench: the serving benchmark.

     main.exe --jfeed PATH --workload W --seed N --seconds S --trace 0|1

   Generates the workload's request stream from the seed, grades every
   distinct submission in-process for the expected payloads, spawns
   [jfeed serve --socket --jobs 2] (set up [setups] times; the median
   set-up time is reported), drives the closed loop, and prints the
   end-to-end metrics — or, with --trace 1, the per-layer metrics of an
   in-process traced replay run after the timed phase.  The last line
   of stdout is one JSON object: correct, attempted, failed, metrics.
   See README.md. *)

open Servebench
module Bundles = Jfeed_kb.Bundles
module Spec = Jfeed_gen.Spec
module Pipeline = Jfeed_robust.Pipeline

let jobs = 2

let fail_usage fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("servebench: " ^ m);
      exit 2)
    fmt

(* {2 JSON output} *)

let num v = if Float.is_finite v then Printf.sprintf "%.12g" v else "null"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (num v) unit)
         ms)
  ^ "}"

let str s = Workload.json_string s

(* {2 Run metadata} *)

(* The commit, when the benchmark runs inside a git work tree. *)
let commit () =
  let read p = String.trim (Procfs.read_text p) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (".git/" ^ r) with
      | exception Sys_error _ -> (
          match read ".git/packed-refs" with
          | exception Sys_error _ -> "unknown"
          | packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ h; name ] when name = r -> Some h
                     | _ -> None)
              |> Option.value ~default:"unknown")
      | h -> h)
  | h -> h

(* A fixed in-process job timed before each run: CPU ms to grade the
   twelve reference solutions with tests, median of five.  Recorded
   beside the metrics to tell a slow VM window from a regression;
   never used to adjust a metric. *)
let speed_probe () =
  Gc.full_major ();
  let refs = List.map (fun b -> (b, Spec.reference b.Bundles.gen)) Bundles.all in
  let once () =
    let c0 = Clock.cpu_ns () in
    List.iter (fun (b, s) -> ignore (Pipeline.grade_submission ~with_tests:true b s)) refs;
    Clock.ms_between c0 (Clock.cpu_ns ())
  in
  Stats.median (Array.init 5 (fun _ -> once ()))

(* {2 Pinned stream digests} *)

let pin_count = 64
let pin_seed = 1

let pinned_line w =
  Printf.sprintf "%s %d %d %s" w.Workload.name pin_seed pin_count
    (Workload.digest (Workload.generate w ~seed:pin_seed ~count:pin_count))

(* Refuse to run when the generator no longer produces the pinned
   stream: runs on different streams are not comparable. *)
let check_pinned w =
  let path = "servebench/streams.txt" in
  let want =
    match Procfs.read_text path with
    | exception Sys_error e -> fail_usage "cannot read stream digests: %s" e
    | text ->
        String.split_on_char '\n' text
        |> List.find_opt (fun l ->
               String.starts_with ~prefix:(w.Workload.name ^ " ") l)
  in
  let got = pinned_line w in
  match want with
  | None -> fail_usage "%s pins no stream for %s" path w.Workload.name
  | Some l when String.trim l = got -> ()
  | Some l ->
      Printf.eprintf
        "servebench: the %s stream changed (pinned: %s; generated: %s).\n\
         Runs on different streams are not comparable.\n"
        w.Workload.name (String.trim l) got;
      exit 3

(* {2 One run} *)

(* In-process payloads of [subs], graded on two domains: this is set-up
   work outside every timed phase, and it would otherwise take as long
   as the timed phase of fresh-tests. *)
let grade_all (subs : Workload.sub array) =
  let n = Array.length subs in
  let part r = Array.init ((n - r + 1) / 2) (fun j -> Traced.pipeline_payload subs.((2 * j) + r)) in
  let odd =
    if n < 2 then fun () -> part 1
    else
      let d = Domain.spawn (fun () -> part 1) in
      fun () -> Domain.join d
  in
  let even = part 0 in
  let odd = odd () in
  Array.init n (fun i -> if i mod 2 = 0 then even.(i / 2) else odd.(i / 2))

(* Set-ups per run; resubmit's grades its 120-submission warm set. *)
let setups = function Workload.Resubmit -> 5 | _ -> 9

(* The timed phase is cut into this many segments of equal request
   counts; throughput, p50 and CPU per request are medians over them.
   On a shared VM, CPU speed drops for stretches of seconds, and a
   median over segments is not moved by a stretch that covers less than
   half of them.  Segment j starts no earlier than j/10 of --seconds
   after the first one (the next segment's expected payloads are graded
   in between, and the rest is idle), so the segments span at least
   --seconds whatever the request count. *)
let segments = 10

(* Socket and span files, relative to the checkout root. *)
let workdir = ".servebench"

let sum_assoc l =
  let h = Hashtbl.create 4 in
  List.iter
    (fun (k, n) -> Hashtbl.replace h k (n + Option.value ~default:0 (Hashtbl.find_opt h k)))
    l;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) h [])

let run ~jfeed ~trace (w : Workload.t) ~seed ~seconds =
  let probe_ms = speed_probe () in
  check_pinned w;
  let count = w.per_second * seconds in
  if count < 1000 then
    fail_usage "%d requests leave fewer than 10 samples beyond p99; raise --seconds" count;
  let st = Workload.generate w ~seed ~count in
  (match Workload.check st with
  | Ok () -> ()
  | Error e -> fail_usage "workload property check failed: %s" e);
  let digest = Workload.digest st in
  let nlines = Array.length st.lines in
  let lines_nl = Array.map (fun s -> Workload.request_line s ^ "\n") st.lines in
  (* Expected payloads: in-process grades of every original, each
     computed before the first request that needs it is sent. *)
  let warmup_payloads = grade_all st.warmup in
  let expected = Array.make (Array.length st.originals) "" in
  let expect ks =
    let todo = List.filter (fun k -> expected.(k) = "") (List.sort_uniq compare ks) in
    let got = grade_all (Array.of_list (List.map (fun k -> st.originals.(k)) todo)) in
    List.iteri (fun j k -> expected.(k) <- got.(j)) todo
  in
  expect (List.init (Array.length st.warm) Fun.id);
  let with_payload subs payloads =
    Array.to_list (Array.mapi (fun j s -> (Workload.request_line s, payloads.(j))) subs)
  in
  let warmup = with_payload st.warmup warmup_payloads in
  let warm = with_payload st.warm (Array.sub expected 0 (Array.length st.warm)) in
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  let socket = Filename.concat workdir (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  at_exit (fun () -> if Sys.file_exists socket then Sys.remove socket);
  let rec setup k acc =
    let d, s = Loadgen.setup ~jfeed ~socket ~jobs ~warmup ~warm in
    if k = 1 then (d, Array.of_list (List.rev (s :: acc)))
    else begin
      Loadgen.stop d;
      setup (k - 1) (s :: acc)
    end
  in
  let d, setup_samples = setup (setups w.kind) [] in
  let cached = w.kind = Workload.Resubmit in
  let latency_ms = Array.make count infinity in
  let slot_s = float_of_int seconds /. float_of_int segments in
  let first = ref 0L in
  let segs =
    Array.init segments (fun j ->
        let lo = j * count / segments and hi = (j + 1) * count / segments in
        expect (List.init (hi - lo) (fun i -> st.origin.((lo + i) mod nlines)));
        if j = 0 then first := Clock.now_ns ()
        else begin
          let idle = (float_of_int j *. slot_s) -. Clock.s_between !first (Clock.now_ns ()) in
          if idle > 0.0 then Unix.sleepf idle
        end;
        Loadgen.closed_loop d ~window:w.window ~lockstep:w.lockstep ~cached ~lo ~hi
          ~latency_ms
          ~line:(fun i -> lines_nl.(i mod nlines))
          ~check:(fun i resp ->
            Loadgen.grade_ok ~cached ~payload:expected.(st.origin.(i mod nlines)) resp))
  in
  let rss_kb = Procfs.status_kb d.pid "VmHWM" in
  Loadgen.stop d;
  (* p99 per group of at least 1000 consecutive requests (ten samples
     beyond each p99), the smallest groups a p99 allows; the run reports
     the lower quartile of the group p99s.  A stall of the shared VM only
     ever adds latency, and on fresh-static (six groups) stalls often hit
     three or four of them, which moves a median but not the quartile. *)
  let groups = count / 1000 in
  let p99 =
    Stats.percentile 25.0
      (Array.init groups (fun g ->
           let lo = g * count / groups and hi = (g + 1) * count / groups in
           match Stats.p99 (Array.sub latency_ms lo (hi - lo)) with
           | Ok v -> v
           | Error e -> fail_usage "%s" e))
  in
  let per_seg f = Array.mapi f segs in
  let seg_bounds j = (j * count / segments, (j + 1) * count / segments) in
  let seg_rps = per_seg (fun _ (s : Loadgen.segment) -> float_of_int s.correct /. s.wall_s) in
  let seg_p50 =
    per_seg (fun j _ ->
        let lo, hi = seg_bounds j in
        Stats.median (Array.sub latency_ms lo (hi - lo)))
  in
  let seg_cpu =
    per_seg (fun _ (s : Loadgen.segment) ->
        s.daemon_cpu_ms /. float_of_int (max 1 s.completed))
  in
  let total f = Array.fold_left (fun acc s -> acc + f s) 0 segs in
  let totalf f = Array.fold_left (fun acc s -> acc +. f s) 0.0 segs in
  let correct_n = total (fun (s : Loadgen.segment) -> s.correct) in
  let failures = sum_assoc (List.concat_map (fun (s : Loadgen.segment) -> s.failures) (Array.to_list segs)) in
  let cpu_ms_per_req = Stats.median seg_cpu in
  let e2e =
    [
      ("throughput_rps", "1/s", Stats.median seg_rps);
      ("latency_p50_ms", "ms", Stats.median seg_p50);
      ("latency_p99_ms", "ms", p99);
      ("cpu_ms_per_req", "ms", cpu_ms_per_req);
      ("peak_rss_mb", "MB", float_of_int rss_kb /. 1024.0);
      ("setup_s", "s", Stats.median setup_samples);
    ]
  in
  let traced =
    if trace then
      Some
        (Traced.run
           ~spans_path:
             (Filename.concat workdir (Printf.sprintf "spans-%s-%d.jsonl" w.name seed))
           st ~warmup_payloads ~expected ~latency_ms ~cpu_ms_per_req)
    else None
  in
  let failed = count - correct_n in
  let mismatches = match traced with Some r -> r.Traced.mismatches | None -> 0 in
  let correct = failed = 0 && mismatches = 0 in
  let nproc, model = Procfs.cpu_info () in
  let nums a = String.concat ", " (Array.to_list (Array.map num a)) in
  (* Human-readable report, then metadata, then the result line. *)
  Printf.printf "servebench %s seed=%d requests=%d stream=%s\n" w.name seed count digest;
  List.iter (fun (n, u, v) -> Printf.printf "  %-22s %14s %s\n" n (num v) u) e2e;
  Option.iter
    (fun r ->
      Printf.printf "  traced replay of %d requests (%d mismatched):\n" r.Traced.requests
        r.Traced.mismatches;
      List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14s %s\n" n (num v) u) r.metrics)
    traced;
  Printf.printf "  requests: sent %d, succeeded %d, failed %d%s\n" count correct_n failed
    (String.concat "" (List.map (fun (r, n) -> Printf.sprintf "; %d %s" n r) failures));
  Printf.printf
    {|{"meta": {"workload": %s, "seed": %d, "requests": %d, "stream_md5": %s, "nproc": %d, "cpu_model": %s, "ocaml": %s, "commit": %s, "jfeed_md5": %s, "jobs": %d, "window": %d, "lockstep": %b, "connections": 2, "setup_s_samples": [%s], "segment_rps": [%s], "segment_cpu_ms_per_req": [%s], "timed_s": %s, "steal_ticks": %d, "generator_cpu_us_per_req": %s, "speed_probe_ms": %s}}|}
    (str w.name) seed count (str digest) nproc (str model) (str Sys.ocaml_version)
    (str (commit ())) (str (Digest.to_hex (Digest.file jfeed))) jobs w.window w.lockstep
    (nums setup_samples) (nums seg_rps) (nums seg_cpu)
    (num (totalf (fun (s : Loadgen.segment) -> s.wall_s)))
    (total (fun (s : Loadgen.segment) -> s.steal_ticks))
    (num (totalf (fun (s : Loadgen.segment) -> s.generator_cpu_ms) *. 1000.0 /. float_of_int count))
    (num probe_ms);
  print_newline ();
  let metrics = match traced with Some r -> r.Traced.metrics | None -> e2e in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": %s}|} correct
    count failed (metrics_json metrics);
  print_newline ();
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let jfeed = ref "" and pin = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME fresh-tests | fresh-static | resubmit");
      ("--seed", Arg.Set_int seed, "N stream seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S run length: per-second request count x S");
      ("--trace", Arg.Set_int trace, "0|1 0: end-to-end metrics; 1: per-layer metrics");
      ("--jfeed", Arg.Set_string jfeed, "PATH the jfeed binary to serve");
      ("--print-pins", Arg.Set pin, " print the pinned stream digest lines and exit");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "servebench [options]";
  if !pin then begin
    List.iter (fun w -> print_endline (pinned_line w)) Workload.all;
    exit 0
  end;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None -> fail_usage "unknown workload %S" !workload
  in
  if !seed < 0 then fail_usage "--seed must be a non-negative integer";
  if !seconds < 1 then fail_usage "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
  if not (Sys.file_exists !jfeed) then fail_usage "no jfeed binary at %S" !jfeed;
  (* No daemon outlives the run, however it ends; and no run outlives
     170 s, even against a wedged daemon. *)
  at_exit Loadgen.kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "servebench: the run exceeded 170 s";
         exit 2));
  ignore (Unix.alarm 170);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let code =
    try
      run ~jfeed:!jfeed ~trace:(!trace = 1) w ~seed:!seed ~seconds:!seconds
    with e ->
      Printf.eprintf "servebench: %s\n" (Printexc.to_string e);
      2
  in
  exit code
