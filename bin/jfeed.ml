(** jfeed — personalized feedback for introductory Java assignments.

    Subcommands:
    - [list]      — the twelve assignments and their knowledge-base sizes
    - [feedback]  — grade a submission file against an assignment
    - [graph]     — print the extended program dependence graph of a file
    - [generate]  — render synthetic submissions from an assignment space
    - [test]      — run an assignment's functional tests on a file
    - [repair]    — search the single-edit space for a minimal change
                    that makes the functional tests pass
    - [batch]     — grade a directory of submissions through the resilient
                    pipeline; JSON summary, never crashes on bad input
    - [strategies] — the predefined algorithmic strategies (§VI-C)
    - [serve]     — persistent grading daemon over newline-delimited JSON
                    with a content-addressed result cache
    - [client]    — pump stdin to a serve daemon's Unix socket and its
                    answers back to stdout
    - [logs]      — replay a serve daemon's lifecycle event log
    - [top]       — live operator console for a serve daemon
    - [assignments] — the bundle ids, one per line (scripting aid)
    - [analyze]   — run the static analysis passes over submission files
    - [lint-kb]   — statically validate the shipped pattern bundles
    - [version]   — tool version, KB revision digest and feature set *)

open Cmdliner
open Jfeed_kb
open Jfeed_core
module Trace = Jfeed_trace.Trace

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let bundle_conv =
  let parse id =
    match Bundles.find id with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown assignment %S; try: %s" id
               (String.concat ", "
                  (List.map
                     (fun (b : Bundles.t) -> b.grading.Grader.a_id)
                     Bundles.all))))
  in
  let print fmt (b : Bundles.t) =
    Format.pp_print_string fmt b.grading.Grader.a_id
  in
  Arg.conv (parse, print)

let assignment_pos =
  Arg.(
    required
    & pos 0 (some bundle_conv) None
    & info [] ~docv:"ASSIGNMENT" ~doc:"Assignment id (see $(b,jfeed list)).")

let file_pos n =
  Arg.(
    required
    & pos n (some file) None
    & info [] ~docv:"FILE" ~doc:"Java submission file.")

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-20s %10s %3s %3s  %s\n" "assignment" "S" "P" "C" "title";
    List.iter
      (fun (b : Bundles.t) ->
        Printf.printf "%-20s %10d %3d %3d  %s\n" b.grading.Grader.a_id
          (Jfeed_gen.Spec.size b.gen)
          (List.length (Bundles.patterns b))
          (List.length (Bundles.constraints b))
          b.grading.Grader.a_title)
      Bundles.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the twelve assignments")
    Term.(const run $ const ())

let feedback_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  let normalize =
    Arg.(
      value & flag
      & info [ "normalize" ]
          ~doc:"Apply else-polarity normalization first (§VII extension).")
  in
  let variants =
    Arg.(
      value & flag
      & info [ "with-variants" ]
          ~doc:"Consult the pattern hierarchy (§VII extension).")
  in
  let inline =
    Arg.(
      value & flag
      & info [ "inline-helpers" ]
          ~doc:"Inline student-invented helper methods (§VII extension).")
  in
  let strategy =
    Arg.(
      value
      & opt (some string) None
      & info [ "strategy" ] ~docv:"ID"
          ~doc:"Enforce an algorithmic strategy (see jfeed strategies).")
  in
  let run b json normalize variants inline strategy path =
    let grading =
      match strategy with
      | None -> b.Bundles.grading
      | Some id -> (
          match Strategies.find id with
          | Some s -> Strategies.apply s b.Bundles.grading
          | None ->
              Printf.eprintf "unknown strategy %S; see jfeed strategies\n" id;
              exit 1)
    in
    match
      Grader.grade_source ~normalize ~use_variants:variants
        ~inline_helpers:inline grading (read_file path)
    with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok result ->
        if json then print_endline (Feedback.to_json result.Grader.comments)
        else begin
          List.iter
            (fun c -> print_endline (Feedback.render c))
            result.Grader.comments;
          Printf.printf "\nscore Λ = %.1f / %d    method pairing: %s\n"
            result.Grader.score
            (List.length result.Grader.comments)
            (String.concat ", "
               (List.map
                  (fun (q, h) ->
                    Printf.sprintf "%s → %s" q
                      (Option.value ~default:"(none)" h))
                  result.Grader.pairing))
        end;
        0
  in
  Cmd.v
    (Cmd.info "feedback" ~doc:"Grade a submission and print the feedback")
    Term.(
      const run $ assignment_pos $ json $ normalize $ variants $ inline
      $ strategy $ file_pos 1)

let strategies_cmd =
  let run () =
    Printf.printf "%-36s %-20s %s\n" "strategy" "assignment" "title";
    List.iter
      (fun (s : Strategies.t) ->
        Printf.printf "%-36s %-20s %s\n" s.Strategies.s_id
          s.Strategies.applies_to s.Strategies.s_title)
      Strategies.all;
    0
  in
  Cmd.v
    (Cmd.info "strategies"
       ~doc:"List the predefined algorithmic strategies (§VI-C)")
    Term.(const run $ const ())

let graph_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one JSON object: assignment id plus every method's \
                nodes and edges.")
  in
  let run b dot json path =
    if dot && json then begin
      Printf.eprintf "jfeed graph: --dot and --json are exclusive\n";
      2
    end
    else
      match Jfeed_pdg.Epdg.of_source (read_file path) with
      | graphs ->
          if json then
            print_endline
              (Printf.sprintf {|{"assignment":"%s","methods":[%s]}|}
                 (Trace.json_escape b.Bundles.grading.Grader.a_id)
                 (String.concat ","
                    (List.map
                       (fun (_, g) -> Jfeed_pdg.Epdg.to_json g)
                       graphs)))
          else
            List.iter
              (fun (_, g) ->
                print_string
                  (if dot then Jfeed_pdg.Epdg.to_dot g
                   else Jfeed_pdg.Epdg.to_string g))
              graphs;
          0
      | exception Jfeed_java.Parser.Parse_error (msg, line, col) ->
          Printf.eprintf "parse error at %d:%d: %s\n" line col msg;
          1
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Print the extended program dependence graph of a submission \
          (text, Graphviz via --dot, or JSON via --json)")
    Term.(const run $ assignment_pos $ dot $ json $ file_pos 1)

let generate_cmd =
  let index =
    Arg.(
      value
      & opt (some int) None
      & info [ "index" ] ~docv:"N" ~doc:"Render submission number N.")
  in
  let sample =
    Arg.(
      value & opt int 1
      & info [ "sample" ] ~docv:"N" ~doc:"Render N sampled submissions.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Sampling seed.")
  in
  let run b index sample seed =
    let spec = b.Bundles.gen in
    let total = Jfeed_gen.Spec.size spec in
    (match index with
    | Some i when i < 0 || i >= total ->
        Printf.eprintf "index %d out of range: %s has %d submissions (0-%d)\n"
          i spec.Jfeed_gen.Spec.id total (total - 1);
        exit 1
    | _ -> ());
    let indices =
      match index with
      | Some i -> [ i ]
      | None -> Jfeed_gen.Spec.sample_indices spec ~n:sample ~seed
    in
    List.iter
      (fun i ->
        Printf.printf "// %s submission %d of %d\n%s\n"
          spec.Jfeed_gen.Spec.id i
          (Jfeed_gen.Spec.size spec)
          (Jfeed_gen.Spec.source_of_index spec i))
      indices;
    0
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Render synthetic submissions from an assignment's search space")
    Term.(const run $ assignment_pos $ index $ sample $ seed)

(* --trace-dir: one Chrome trace_event file per submission, plus an
   aggregate summary.json.  File names derive from the submission file
   names ([Sys.readdir] basenames, so no separators to sanitize). *)
let write_trace_dir dir (summary : Jfeed_robust.Pipeline.summary) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write_file path contents =
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc
  in
  List.iteri
    (fun i (it : Jfeed_robust.Pipeline.item) ->
      if Trace.enabled it.trace then
        write_file
          (Filename.concat dir (it.file ^ ".trace.json"))
          (Trace.to_chrome_json ~pid:1 ~tid:(i + 1) it.trace))
    summary.items;
  (* Aggregate: nearest-rank p50/p95 of each stage's per-submission
     total, stages in first-seen order, then the top 5 patterns by
     total matcher fuel (the [match.fuel:<pattern>] counters). *)
  let stage_order = ref [] in
  let stage_ms : (string, float list) Hashtbl.t = Hashtbl.create 16 in
  let fuel_by_pattern : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (it : Jfeed_robust.Pipeline.item) ->
      List.iter
        (fun (stage, (_n, ns)) ->
          if not (Hashtbl.mem stage_ms stage) then
            stage_order := stage :: !stage_order;
          Hashtbl.replace stage_ms stage
            ((Int64.to_float ns /. 1e6)
            :: (try Hashtbl.find stage_ms stage with Not_found -> [])))
        (Trace.rollup it.trace);
      List.iter
        (fun (name, n) ->
          match String.index_opt name ':' with
          | Some i when String.sub name 0 i = "match.fuel" ->
              let p =
                String.sub name (i + 1) (String.length name - i - 1)
              in
              Hashtbl.replace fuel_by_pattern p
                (n
                + try Hashtbl.find fuel_by_pattern p with Not_found -> 0)
          | _ -> ())
        (Trace.counters it.trace))
    summary.items;
  let percentile p xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    Trace.nearest_rank a p
  in
  let stages =
    List.rev !stage_order
    |> List.map (fun stage ->
           let xs = Hashtbl.find stage_ms stage in
           Printf.sprintf {|"%s":{"p50_ms":%.4f,"p95_ms":%.4f}|}
             (Trace.json_escape stage)
             (percentile 0.50 xs) (percentile 0.95 xs))
  in
  let top_patterns =
    Hashtbl.fold (fun p n acc -> (p, n) :: acc) fuel_by_pattern []
    |> List.sort (fun (p1, n1) (p2, n2) ->
           match compare n2 n1 with 0 -> compare p1 p2 | c -> c)
    |> List.filteri (fun i _ -> i < 5)
    |> List.map (fun (p, n) ->
           Printf.sprintf {|{"pattern":"%s","fuel":%d}|}
             (Trace.json_escape p) n)
  in
  let dedup =
    match summary.dedup with
    | Some d ->
        Printf.sprintf {|,"dedup":{"classes":%d,"replayed":%d}|}
          d.Jfeed_robust.Pipeline.classes d.Jfeed_robust.Pipeline.replayed
    | None -> ""
  in
  write_file
    (Filename.concat dir "summary.json")
    (Printf.sprintf
       {|{"submissions":%d,"stages":{%s},"top_patterns":[%s]%s}|}
       summary.total
       (String.concat "," stages)
       (String.concat "," top_patterns)
       dedup)

let batch_cmd =
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Per-submission fuel budget shared by the matcher, the \
             method-pairing search and the interpreter; exhaustion degrades \
             the grade instead of aborting it.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-submission CPU-time deadline.")
  in
  let no_tests =
    Arg.(
      value & flag
      & info [ "no-tests" ] ~doc:"Skip the functional-test stage.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Grade submissions on N parallel domains.  Output is \
             byte-identical to --jobs 1 (deterministic merge; the fuel \
             budget is per submission at any N).")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Embed a per-stage trace summary (span counts, milliseconds, \
             matcher counters) in every submission's JSON line.")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Write one Chrome trace_event JSON file per submission into \
             $(docv) (created if missing; loadable in about:tracing or \
             Perfetto), plus an aggregate summary.json with per-stage \
             p50/p95 and the patterns costing the most matcher fuel.")
  in
  let no_dedup =
    Arg.(
      value & flag
      & info [ "no-dedup" ]
          ~doc:
            "Grade every submission independently instead of grading one \
             representative per α-equivalence class and replaying it for \
             the duplicates; also drops the summary's \"dedup\" field, \
             restoring the exact pre-dedup output bytes.")
  in
  let dir_pos =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DIR" ~doc:"Directory of submission files.")
  in
  let run b fuel deadline no_tests jobs trace trace_dir no_dedup dir =
    if jobs < 1 then begin
      Printf.eprintf "jfeed batch: --jobs must be at least 1 (got %d)\n" jobs;
      2
    end
    else if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "jfeed batch: %S is not a directory\n" dir;
      2
    end
    else begin
      let sources =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.filter_map (fun f ->
               let path = Filename.concat dir f in
               if Sys.is_directory path then None
               else
                 Some
                   ( f,
                     match read_file path with
                     | s -> Ok s
                     | exception Sys_error e -> Error e ))
      in
      let summary =
        Jfeed_robust.Pipeline.run_batch ?fuel ?deadline_s:deadline
          ~with_tests:(not no_tests) ~jobs
          ~traced:(trace || trace_dir <> None)
          ~dedup:(not no_dedup) b sources
      in
      (match trace_dir with
      | None -> ()
      | Some dir -> write_trace_dir dir summary);
      (* --trace-dir without --trace keeps stdout byte-identical to an
         untraced run; the traces live only in the directory. *)
      print_endline
        (Jfeed_robust.Pipeline.summary_to_json ~traces:trace summary);
      Jfeed_robust.Pipeline.exit_code summary
    end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Grade every submission in a directory through the resilient \
          pipeline (exit 0: all graded; 1: some degraded/rejected; 2: usage \
          error)")
    Term.(
      const run $ assignment_pos $ fuel $ deadline $ no_tests $ jobs
      $ trace $ trace_dir $ no_dedup $ dir_pos)

let assignments_cmd =
  let run () =
    List.iter
      (fun (b : Bundles.t) -> print_endline b.grading.Grader.a_id)
      Bundles.all;
    0
  in
  Cmd.v
    (Cmd.info "assignments"
       ~doc:
         "Print the assignment ids, one per line (the valid values of the \
          serve protocol's \"assignment\" field)")
    Term.(const run $ const ())

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) instead of serving \
             stdin/stdout as the one connection; connections are served \
             concurrently by the same loop and share the cache.")
  in
  let cache_cap =
    Arg.(
      value
      & opt int Jfeed_service.Server.default_config.cache_cap
      & info [ "cache-cap" ] ~docv:"N"
          ~doc:"Result-cache capacity in entries (LRU); 0 disables caching.")
  in
  let queue_cap =
    Arg.(
      value
      & opt int Jfeed_service.Server.default_config.queue_cap
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Maximum grade requests admitted and not yet answered.  On \
             stdin, further lines wait in the pipe until an answer frees \
             a place; the socket daemon answers them \
             rejected:\"overloaded\".")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Grade cache misses on up to N domains, the serving one \
             included.  The N - 1 helper domains grow only when work \
             waits while every domain grades.")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Default per-request fuel budget; a request's \"fuel\" field \
             overrides it.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Default per-request CPU-time deadline.")
  in
  let no_tests =
    Arg.(
      value & flag
      & info [ "no-tests" ]
          ~doc:"Skip the functional-test stage by default.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Make the result cache durable: append every fresh grade to a \
             checksummed log under $(docv) and replay it into a warm cache \
             on startup (crash-safe; a torn tail is truncated).")
  in
  let backlog =
    Arg.(
      value
      & opt int Jfeed_service.Server.default_config.backlog
      & info [ "backlog" ] ~docv:"N"
          ~doc:"listen(2) backlog for --socket mode.")
  in
  let shards =
    Arg.(
      value
      & opt int Jfeed_service.Server.default_config.shards
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Result-cache shard count.  Lookups are shard-count-invariant, \
             and every lookup already runs under the serving loop's one \
             lock, so this only routes keys.")
  in
  let watermark =
    Arg.(
      value
      & opt (some int) None
      & info [ "watermark" ] ~docv:"N"
          ~doc:
            "Queue depth from which grade requests are admitted on the \
             degraded --shed-fuel budget instead of their own (requires \
             --shed-fuel).")
  in
  let shed_fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "shed-fuel" ] ~docv:"N"
          ~doc:
            "Fuel clamp for degraded admission past --watermark: admitted \
             requests keep the smaller of their own budget and $(docv).")
  in
  let event_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "event-log" ] ~docv:"DIR"
          ~doc:
            "Write one checksummed JSONL line per request lifecycle event \
             (admit, degrade, shed, cache hit/miss, grade, respond, \
             write-out) under $(docv); size-rotated, crash-replayable.  \
             Read it back with $(b,jfeed logs).")
  in
  let event_ring =
    Arg.(
      value
      & opt (some int) None
      & info [ "event-ring" ] ~docv:"N"
          ~doc:
            "Event-log in-memory ring capacity in lines (default 4096); \
             events past a full ring are counted as dropped, never block \
             grading.")
  in
  let event_rotate =
    Arg.(
      value
      & opt (some int) None
      & info [ "event-rotate" ] ~docv:"BYTES"
          ~doc:
            "Rotate events.jsonl to events.jsonl.1 past $(docv) bytes \
             (default 8 MiB); one rotated generation is kept.")
  in
  let trace_sample =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Tail-based sampling: retain the full span tree of every \
             $(docv)th graded cache miss, on top of the always-retained \
             slow, degraded and rejected requests.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Latency threshold above which a request's trace is retained \
             (defaults to --slo-ms when that is set).")
  in
  let slo_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-ms" ] ~docv:"MS"
          ~doc:
            "Grade-latency objective: answers within $(docv) ms count \
             good, slower ones (and sheds) bad; turns on SLO counters, \
             burn-rate gauges and the stats \"slo\" object.")
  in
  let slo_target =
    Arg.(
      value
      & opt float Jfeed_service.Server.default_config.slo_target
      & info [ "slo-target" ] ~docv:"FRACTION"
          ~doc:
            "Availability objective: the fraction of requests meant to \
             meet --slo-ms (default 0.999).  Burn rates divide by the \
             error budget 1 - $(docv).")
  in
  let run socket cache_cap queue_cap jobs fuel deadline no_tests cache_dir
      backlog shards watermark shed_fuel event_log event_ring event_rotate
      trace_sample slow_ms slo_ms slo_target =
    if jobs < 1 then begin
      Printf.eprintf "jfeed serve: --jobs must be at least 1 (got %d)\n" jobs;
      2
    end
    else if queue_cap < 1 then begin
      Printf.eprintf "jfeed serve: --queue-cap must be at least 1 (got %d)\n"
        queue_cap;
      2
    end
    else if shards < 1 then begin
      Printf.eprintf "jfeed serve: --shards must be at least 1 (got %d)\n"
        shards;
      2
    end
    else if backlog < 1 then begin
      Printf.eprintf "jfeed serve: --backlog must be at least 1 (got %d)\n"
        backlog;
      2
    end
    else if (match trace_sample with Some n -> n < 1 | None -> false)
    then begin
      Printf.eprintf
        "jfeed serve: --trace-sample must be at least 1 (got %d)\n"
        (Option.get trace_sample);
      2
    end
    else if not (slo_target > 0.0 && slo_target < 1.0) then begin
      Printf.eprintf
        "jfeed serve: --slo-target must be strictly between 0 and 1 (got \
         %g)\n"
        slo_target;
      2
    end
    else begin
      let config =
        {
          Jfeed_service.Server.cache_cap;
          queue_cap;
          jobs;
          fuel;
          deadline_s = deadline;
          with_tests = not no_tests;
          shards;
          cache_dir;
          backlog;
          watermark;
          shed_fuel;
          event_log;
          event_ring;
          event_rotate;
          trace_sample;
          slow_ms;
          slo_ms;
          slo_target;
        }
      in
      match
        (* [Failure] here is the durable store refusing to double-open a
           locked cache directory — a usage error, not a crash. *)
        try
          Ok
            (match socket with
            | None -> Jfeed_service.Server.serve_stdio config
            | Some path -> Jfeed_service.Server.serve_socket config path)
        with Failure msg -> Error msg
      with
      | Ok () -> 0
      | Error msg ->
          Printf.eprintf "jfeed serve: %s\n" msg;
          1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent grading daemon: newline-delimited JSON \
          requests (grade/stats/metrics/slowlog/shutdown) on stdin or a \
          Unix socket (concurrent connections, admission control, \
          optional durable cache), one answer per request in request \
          order — one line each, except metrics, which answers with a \
          Prometheus exposition block of several lines ending in \
          '# EOF' — and an α-renaming-aware result cache")
    Term.(
      const run $ socket $ cache_cap $ queue_cap $ jobs $ fuel $ deadline
      $ no_tests $ cache_dir $ backlog $ shards $ watermark $ shed_fuel
      $ event_log $ event_ring $ event_rotate $ trace_sample $ slow_ms
      $ slo_ms $ slo_target)

let client_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"The daemon's Unix-domain socket.")
  in
  (* A protocol-agnostic pump so shell scripts (and the cram suite) can
     drive a socket daemon without netcat: stdin bytes go to the
     socket, socket bytes come back on stdout, stdin EOF half-closes
     the connection (the daemon answers everything sent, then closes),
     socket EOF ends the pump.  Both directions are multiplexed, so a
     large request set can't deadlock against a large response set. *)
  let run path =
    let module Sysx = Jfeed_service.Sysx in
    (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
    | () -> ()
    | exception _ -> ());
    try
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      let buf = Bytes.create 65536 in
      let pending = ref Bytes.empty in
      let off = ref 0 in
      let unsent () = Bytes.length !pending - !off in
      let stdin_open = ref true in
      let sock_open = ref true in
      while !sock_open do
        let rds =
          (if !stdin_open && unsent () = 0 then [ Unix.stdin ] else [])
          @ [ sock ]
        in
        let wrs = if unsent () > 0 then [ sock ] else [] in
        let r, w, _ = Sysx.select rds wrs [] (-1.0) in
        if List.mem Unix.stdin r then begin
          match Sysx.read Unix.stdin buf 0 (Bytes.length buf) with
          | `Read 0 ->
              stdin_open := false;
              if unsent () = 0 then Unix.shutdown sock Unix.SHUTDOWN_SEND
          | `Read n ->
              pending := Bytes.sub buf 0 n;
              off := 0
          | `Again -> ()
        end;
        if List.mem sock w && unsent () > 0 then begin
          match Sysx.write sock !pending !off (unsent ()) with
          | `Wrote n ->
              off := !off + n;
              if unsent () = 0 then begin
                pending := Bytes.empty;
                off := 0;
                if not !stdin_open then
                  Unix.shutdown sock Unix.SHUTDOWN_SEND
              end
          | `Again -> ()
        end;
        if List.mem sock r then begin
          match Sysx.read sock buf 0 (Bytes.length buf) with
          | `Read 0 -> sock_open := false
          | `Read n ->
              print_string (Bytes.sub_string buf 0 n);
              flush stdout
          | `Again -> ()
        end
      done;
      (try Unix.close sock with _ -> ());
      0
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "jfeed client: %s: %s\n" path (Unix.error_message e);
      1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Pump stdin to a serve daemon's Unix socket and its responses \
          back to stdout (stdin EOF half-closes; exits when the daemon \
          has answered everything)")
    Term.(const run $ socket)

let logs_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "event-log" ] ~docv:"DIR"
          ~doc:"The daemon's --event-log directory.")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow"; "f" ]
          ~doc:
            "After replaying, keep polling the log and print events as the \
             daemon writes them (like tail -f; rotation is followed).")
  in
  let rid =
    Arg.(
      value
      & opt (some string) None
      & info [ "rid" ] ~docv:"ID"
          ~doc:
            "Print only the named request's lifecycle — every event line \
             whose \"rid\" equals $(docv).")
  in
  let run dir follow rid =
    let module Events = Jfeed_trace.Events in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      nn = 0 || go 0
    in
    let wanted line =
      match rid with
      | None -> true
      | Some r ->
          contains line
            (Printf.sprintf {|"rid":"%s"|}
               (Trace.json_escape r))
    in
    let show line = if wanted line then print_endline line in
    (* Replay tolerates a live writer and a torn tail alike: only
       checksummed, newline-terminated lines print; the first invalid
       one ends the pass. *)
    ignore (Events.replay_dir dir ~f:show);
    flush stdout;
    if not follow then 0
    else begin
      let count_current () =
        let n = ref 0 in
        ignore
          (Events.replay_file (Events.current_path dir) ~f:(fun _ -> incr n));
        !n
      in
      let seen = ref (count_current ()) in
      while true do
        Unix.sleepf 0.2;
        let n = count_current () in
        (* Fewer valid lines than last poll means the file rotated
           underneath us; the new generation starts from scratch. *)
        if n < !seen then seen := 0;
        if n > !seen then begin
          let i = ref 0 in
          ignore
            (Events.replay_file (Events.current_path dir) ~f:(fun line ->
                 if !i >= !seen then show line;
                 incr i));
          flush stdout;
          seen := n
        end
      done;
      0
    end
  in
  Cmd.v
    (Cmd.info "logs"
       ~doc:
         "Replay a serve daemon's lifecycle event log (valid prefix only; \
          torn tails are skipped), optionally filtered to one request id \
          and optionally following the live file")
    Term.(const run $ dir $ follow $ rid)

let top_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"The daemon's Unix-domain socket.")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period (default 2).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Render one frame and exit, without clearing the screen — \
             scriptable.")
  in
  let frames =
    Arg.(
      value
      & opt (some int) None
      & info [ "frames" ] ~docv:"N" ~doc:"Stop after N frames.")
  in
  let run path interval once frames =
    let module Proto = Jfeed_service.Proto in
    try
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      (* One persistent connection; each frame asks for stats + slowlog
         and reads exactly two lines back (the protocol answers in
         request order). *)
      let query () =
        output_string oc "{\"op\":\"stats\"}\n{\"op\":\"slowlog\"}\n";
        flush oc;
        let s = input_line ic in
        let sl = input_line ic in
        (Proto.parse_json s, Proto.parse_json sl)
      in
      let jget j p =
        List.fold_left
          (fun acc k -> Option.bind acc (Proto.member k))
          (Some j) p
      in
      let num j p = match jget j p with Some (Proto.Num f) -> f | _ -> 0.0 in
      let str j p = match jget j p with Some (Proto.Str s) -> s | _ -> "-" in
      let frames_wanted = if once then Some 1 else frames in
      let prev_requests = ref 0.0 in
      let frame = ref 0 in
      let continue = ref true in
      let rc = ref 0 in
      while !continue do
        (match query () with
        | Ok stats, Ok slow ->
            incr frame;
            if not once then print_string "\027[2J\027[H";
            let requests = num stats [ "requests" ] in
            let rps =
              if !frame = 1 then 0.0
              else (requests -. !prev_requests) /. interval
            in
            prev_requests := requests;
            let hits = num stats [ "cache"; "hits" ] in
            let misses = num stats [ "cache"; "misses" ] in
            let hit_rate =
              if hits +. misses > 0.0 then
                100.0 *. hits /. (hits +. misses)
              else 0.0
            in
            Printf.printf "jfeed top — %s — frame %d\n" path !frame;
            Printf.printf
              "requests  total %.0f  (%.1f rps)   grades %.0f   errors %.0f\n"
              requests rps
              (num stats [ "grades" ])
              (num stats [ "errors" ]);
            Printf.printf
              "cache     hits %.0f  misses %.0f  hit-rate %.1f%%  size \
               %.0f/%.0f\n"
              hits misses hit_rate
              (num stats [ "cache"; "size" ])
              (num stats [ "cache"; "cap" ]);
            Printf.printf
              "queue     depth %.0f  max %.0f  cap %.0f   conns %.0f\n"
              (num stats [ "queue"; "depth" ])
              (num stats [ "queue"; "max" ])
              (num stats [ "queue"; "cap" ])
              (num stats [ "conns" ]);
            Printf.printf
              "outcomes  graded %.0f  degraded %.0f  rejected %.0f\n"
              (num stats [ "outcomes"; "graded" ])
              (num stats [ "outcomes"; "degraded" ])
              (num stats [ "outcomes"; "rejected" ]);
            Printf.printf "admission shed %.0f  degraded %.0f\n"
              (num stats [ "admission"; "shed" ])
              (num stats [ "admission"; "degraded" ]);
            Printf.printf "latency   p50 %.3g ms  p95 %.3g ms\n"
              (num stats [ "latency_ms"; "p50" ])
              (num stats [ "latency_ms"; "p95" ]);
            (match jget stats [ "slo" ] with
            | Some _ ->
                Printf.printf
                  "slo       good %.0f  bad %.0f  burn 1m %.3g  5m %.3g  \
                   1h %.3g\n"
                  (num stats [ "slo"; "good" ])
                  (num stats [ "slo"; "bad" ])
                  (num stats [ "slo"; "burn"; "1m" ])
                  (num stats [ "slo"; "burn"; "5m" ])
                  (num stats [ "slo"; "burn"; "1h" ])
            | None -> ());
            (match jget slow [ "slowest" ] with
            | Some (Proto.Arr (first :: _)) ->
                Printf.printf "slowest   %.3g ms  %s  %s\n"
                  (num first [ "ms" ])
                  (str first [ "assignment" ])
                  (str first [ "outcome" ])
            | _ -> ());
            flush stdout
        | _ ->
            prerr_endline "jfeed top: malformed response";
            rc := 1;
            continue := false);
        (match frames_wanted with
        | Some n when !frame >= n -> continue := false
        | _ -> ());
        if !continue then Unix.sleepf interval
      done;
      (try Unix.close sock with _ -> ());
      !rc
    with
    | Unix.Unix_error (e, _, _) ->
        Printf.eprintf "jfeed top: %s: %s\n" path (Unix.error_message e);
        1
    | End_of_file ->
        Printf.eprintf "jfeed top: daemon closed the connection\n";
        1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live operator console for a serve daemon: rps, queue depth, \
          shed/degraded rates, cache hit rate, latency percentiles, SLO \
          burn — one plain-text frame per refresh")
    Term.(const run $ socket $ interval $ once $ frames)

let analyze_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"One JSON object per file: {\"file\":…,\"diagnostics\":[…]}.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Analyze files on N parallel domains.  Output is byte-identical \
             to --jobs 1 (deterministic merge).")
  in
  let only =
    Arg.(
      value & opt (some string) None
      & info [ "only" ] ~docv:"PASS[,PASS…]"
          ~doc:
            "Report only these passes' diagnostics (parse/read errors are \
             always reported).  Mutually exclusive with --except.")
  in
  let except =
    Arg.(
      value & opt (some string) None
      & info [ "except" ] ~docv:"PASS[,PASS…]"
          ~doc:"Suppress these passes' diagnostics.")
  in
  let oracle =
    Arg.(
      value & opt (some string) None
      & info [ "oracle" ] ~docv:"FILE"
          ~doc:
            "Reference solution; arms the efficiency pass, which flags \
             methods whose inferred loop-nest degree exceeds the \
             same-named oracle method's.")
  in
  let files_pos =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Java submission files.")
  in
  let run json jobs only except oracle files =
    let module D = Jfeed_analysis.Diagnostic in
    let module P = Jfeed_absint.Passes in
    let usage fmt = Printf.ksprintf (fun m ->
        Printf.eprintf "jfeed analyze: %s\n" m; Error 2) fmt
    in
    (* Pass-filter satellite: validated against the ten known ids; the
       [parse]/[read] pseudo-passes are never filtered out. *)
    let parse_passes s =
      let ids = List.filter (fun p -> p <> "") (String.split_on_char ',' s) in
      match List.find_opt (fun p -> not (List.mem p P.all_pass_ids)) ids with
      | Some bad ->
          usage "unknown pass '%s' (known: %s)" bad
            (String.concat ", " P.all_pass_ids)
      | None -> Ok ids
    in
    let filter =
      if jobs < 1 then usage "--jobs must be at least 1 (got %d)" jobs
      else
        match (only, except) with
        | Some _, Some _ -> usage "--only and --except are mutually exclusive"
        | Some s, None ->
            Result.map
              (fun ids (d : D.t) ->
                List.mem d.pass ids || not (List.mem d.pass P.all_pass_ids))
              (parse_passes s)
        | None, Some s ->
            Result.map
              (fun ids (d : D.t) -> not (List.mem d.pass ids))
              (parse_passes s)
        | None, None -> Ok (fun _ -> true)
    in
    let oracle_degrees =
      match oracle with
      | None -> Ok None
      | Some path -> (
          match read_file path with
          | exception Sys_error e -> usage "--oracle: %s" e
          | src -> (
              match Jfeed_java.Parser.parse_program src with
              | prog -> Ok (Some (P.method_degrees prog))
              | exception _ -> usage "--oracle: %s does not parse" path))
    in
    match (filter, oracle_degrees) with
    | Error c, _ | _, Error c -> c
    | Ok keep, Ok oracle_degrees ->
        let analyze_file path =
          match read_file path with
          | exception Sys_error e ->
              [ D.make ~pass:"read" ~severity:D.Error e ]
          | src -> P.analyze_source ?oracle_degrees src
        in
        let render path diags =
          if json then
            Printf.sprintf {|{"file":"%s","diagnostics":[%s]}|}
              (Trace.json_escape path)
              (String.concat "," (List.map D.to_json diags))
          else
            String.concat ""
              (List.map
                 (fun d -> Printf.sprintf "%s:%s\n" path (D.render d))
                 diags)
        in
        let results =
          Jfeed_parallel.Pool.map ~jobs
            ~f:(fun path ->
              let diags = List.filter keep (analyze_file path) in
              (render path diags, diags <> []))
            (Array.of_list files)
        in
        Array.iter
          (fun (text, _) ->
            if json then print_endline text else print_string text)
          results;
        if Array.exists snd results then 1 else 0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static analysis passes (use-before-init, dead-store, \
          unreachable, missing-return, suspicious-loop, div-by-zero, \
          array-out-of-bounds, constant-condition, unused-range, \
          efficiency) over submission files (exit 0: clean; 1: \
          diagnostics; 2: usage error)")
    Term.(const run $ json $ jobs $ only $ except $ oracle $ files_pos)

let lint_kb_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "One JSON object per assignment: \
             {\"assignment\":…,\"diagnostics\":[…]}.")
  in
  let fixture =
    Arg.(
      value & flag
      & info [ "fixture-broken" ]
          ~doc:
            "Lint the deliberately broken built-in fixture instead of the \
             shipped bundles (must exit 1 — used by the test suite).")
  in
  let assignments_pos =
    Arg.(
      value & pos_all bundle_conv []
      & info [] ~docv:"ASSIGNMENT"
        ~doc:"Assignments to lint (default: all twelve).")
  in
  let run json fixture assignments =
    let module D = Jfeed_analysis.Diagnostic in
    let specs =
      if fixture then [ Jfeed_analysis.Kb_lint.broken_fixture ]
      else
        (match assignments with [] -> Bundles.all | bs -> bs)
        |> List.map (fun (b : Bundles.t) -> b.grading)
    in
    let dirty = ref false in
    List.iter
      (fun (spec : Grader.spec) ->
        let diags = Jfeed_analysis.Kb_lint.lint_spec spec in
        if diags <> [] then dirty := true;
        if json then
          Printf.printf {|{"assignment":"%s","diagnostics":[%s]}|}
            (Trace.json_escape spec.a_id)
            (String.concat "," (List.map D.to_json diags))
        else if diags = [] then Printf.printf "%s: ok\n" spec.a_id
        else
          List.iter
            (fun d -> Printf.printf "%s:%s\n" spec.a_id (D.render d))
            diags;
        if json then print_newline ())
      specs;
    if !dirty then 1 else 0
  in
  Cmd.v
    (Cmd.info "lint-kb"
       ~doc:
         "Statically validate pattern bundles: dangling references, unknown \
          pattern ids, unbound feedback placeholders, unsatisfiable \
          patterns, duplicates (exit 0: clean; 1: problems found)")
    Term.(const run $ json $ fixture $ assignments_pos)

let test_cmd =
  let run b path =
    let suite = b.Bundles.suite in
    let reference =
      Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference b.Bundles.gen)
    in
    let expected = Jfeed_ftest.Runner.expected_outputs suite reference in
    match Jfeed_java.Parser.parse_program (read_file path) with
    | exception Jfeed_java.Parser.Parse_error (msg, line, col) ->
        Printf.eprintf "parse error at %d:%d: %s\n" line col msg;
        1
    | prog -> (
        match Jfeed_ftest.Runner.run suite ~expected prog with
        | Jfeed_ftest.Runner.Pass ->
            print_endline "all functional tests passed";
            0
        | Jfeed_ftest.Runner.Fail { case; reason } ->
            Printf.printf "FAILED on %s: %s\n" case reason;
            1)
  in
  Cmd.v
    (Cmd.info "test" ~doc:"Run the assignment's functional tests on a file")
    Term.(const run $ assignment_pos $ file_pos 1)

let repair_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the grading outcome JSON with the repair hint spliced \
             in as its \"repair\" field.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Screen candidate edits on N parallel domains.  Output is \
             byte-identical to --jobs 1 (candidates are charged against \
             the budget in priority order whatever the evaluation \
             order).")
  in
  let fuel =
    Arg.(
      value
      & opt int Jfeed_repair.Repair.default_fuel
      & info [ "fuel" ] ~docv:"UNITS"
          ~doc:"Total repair budget (interpreter steps across all \
                candidate screenings).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"CPU-time bound on the search, checked between screening \
                batches.")
  in
  let run b json jobs fuel deadline path =
    if jobs < 1 then begin
      Printf.eprintf "jfeed repair: --jobs must be at least 1 (got %d)\n" jobs;
      2
    end
    else
      match read_file path with
      | exception Sys_error e ->
          Printf.eprintf "jfeed repair: %s\n" e;
          1
      | src ->
          let outcome =
            Jfeed_repair.Repair.search ~fuel ?deadline_s:deadline ~jobs b src
          in
          if json then begin
            let item =
              Jfeed_robust.Pipeline.grade_submission ~name:path b src
            in
            print_endline
              (Jfeed_robust.Outcome.to_json ~file:path
                 ~repair:(Jfeed_repair.Repair.to_json outcome)
                 item.Jfeed_robust.Pipeline.outcome)
          end
          else print_endline (Jfeed_repair.Repair.render outcome);
          (match outcome.Jfeed_repair.Repair.status with
          | Jfeed_repair.Repair.Already_passing -> 0
          | _ -> 1)
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Search the single-edit space for a minimal change that makes \
          the assignment's functional tests pass (exit 0: already \
          passing; 1: a fix was needed — found or not; 2: usage error)")
    Term.(
      const run $ assignment_pos $ json $ jobs $ fuel $ deadline $ file_pos 1)

let tool_version = Jfeed_service.Build.version

let version_cmd =
  (* The build's identity on one JSON line: tool version, the digest of
     the compiled-in knowledge base (Bundles.revision — two builds with
     the same digest grade identically), and the compiled-in feature
     set, fixed order. *)
  let features =
    [
      "normalize"; "variants"; "inline-helpers"; "strategies"; "analysis";
      "absint"; "parallel"; "serve-cache"; "trace"; "repair"; "events"; "slo";
    ]
  in
  let run () =
    Printf.printf {|{"version":"%s","kb_revision":"%s","features":[%s]}|}
      (Trace.json_escape tool_version)
      (Trace.json_escape (Bundles.revision ()))
      (String.concat "," (List.map Trace.json_string features));
    print_newline ();
    0
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print tool version, knowledge-base revision digest and enabled \
          features as one JSON line")
    Term.(const run $ const ())

let () =
  let doc = "PDG-pattern personalized feedback for intro Java assignments" in
  let info = Cmd.info "jfeed" ~version:tool_version ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd; feedback_cmd; graph_cmd; generate_cmd; test_cmd;
            repair_cmd; batch_cmd; strategies_cmd; serve_cmd; client_cmd;
            logs_cmd; top_cmd; assignments_cmd; analyze_cmd; lint_kb_cmd;
            version_cmd;
          ]))
