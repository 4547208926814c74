(** Serving statistics.  See metrics.mli. *)

let reservoir_cap = 4096
let slowlog_cap = 10

(* Fixed histogram bucket upper bounds, milliseconds.  Frozen: the
   exposition's {le="…"} label set is part of the cram-pinned surface,
   and Prometheus forbids a histogram's buckets changing between
   scrapes anyway. *)
let latency_buckets =
  [| 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0 |]

type t = {
  mutable requests : int;
  mutable grades : int;
  mutable stats_reqs : int;
  mutable errors : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable graded : int;
  mutable degraded : int;
  mutable rejected : int;
  mutable shed : int;
  mutable degraded_admission : int;
  mutable queue_max : int;
  diag_counts : (string, int) Hashtbl.t;
      (* static-analysis findings delivered, keyed by pass id; cached
         replays count — the client received those diagnostics too *)
  lat : float array;  (* ring of the last [reservoir_cap] grade latencies *)
  mutable lat_n : int;  (* total latencies ever recorded *)
  lat_hist : int array;  (* per-bucket counts, + one overflow slot *)
  mutable lat_sum : float;  (* total milliseconds ever recorded *)
  mutable slow : Proto.slow_entry list;
      (* the [slowlog_cap] slowest grades, slowest first *)
  mutable slo_good : int;
  mutable slo_bad : int;
  (* ring of the last [reservoir_cap] SLO verdicts with their monotonic
     timestamps, for trailing-window burn rates *)
  slo_ts : int64 array;
  slo_ok : bool array;
  mutable slo_n : int;
  mutable traces_retained : int;
}

let create () =
  {
    requests = 0;
    grades = 0;
    stats_reqs = 0;
    errors = 0;
    cache_hits = 0;
    cache_misses = 0;
    graded = 0;
    degraded = 0;
    rejected = 0;
    shed = 0;
    degraded_admission = 0;
    queue_max = 0;
    diag_counts = Hashtbl.create 8;
    lat = Array.make reservoir_cap 0.0;
    lat_n = 0;
    lat_hist = Array.make (Array.length latency_buckets + 1) 0;
    lat_sum = 0.0;
    slow = [];
    slo_good = 0;
    slo_bad = 0;
    slo_ts = Array.make reservoir_cap 0L;
    slo_ok = Array.make reservoir_cap false;
    slo_n = 0;
    traces_retained = 0;
  }

let record_request t = t.requests <- t.requests + 1
let record_error t = t.errors <- t.errors + 1
let record_stats_req t = t.stats_reqs <- t.stats_reqs + 1
let record_shed t = t.shed <- t.shed + 1

let record_degraded_admission t =
  t.degraded_admission <- t.degraded_admission + 1

let record_slo t ~ok =
  if ok then t.slo_good <- t.slo_good + 1 else t.slo_bad <- t.slo_bad + 1;
  let i = t.slo_n mod reservoir_cap in
  t.slo_ts.(i) <- Jfeed_trace.Trace.now_ns ();
  t.slo_ok.(i) <- ok;
  t.slo_n <- t.slo_n + 1

let slo_good t = t.slo_good
let slo_bad t = t.slo_bad

(* Burn rate over a trailing window: the fraction of requests in the
   window that blew the objective, divided by the error budget
   [1 - target].  1.0 = spending the budget exactly at the sustainable
   rate; no traffic in the window burns nothing. *)
let burn_rate t ~target ~window_s =
  let n = min t.slo_n reservoir_cap in
  if n = 0 || target >= 1.0 then 0.0
  else begin
    let cutoff =
      Int64.sub (Jfeed_trace.Trace.now_ns ())
        (Int64.of_float (window_s *. 1e9))
    in
    let total = ref 0 and bad = ref 0 in
    for i = 0 to n - 1 do
      if t.slo_ts.(i) >= cutoff then begin
        incr total;
        if not t.slo_ok.(i) then incr bad
      end
    done;
    if !total = 0 then 0.0
    else float_of_int !bad /. float_of_int !total /. (1.0 -. target)
  end

let record_trace_retained t = t.traces_retained <- t.traces_retained + 1

let record_grade t ~outcome ~hit ~ms =
  t.grades <- t.grades + 1;
  if hit then t.cache_hits <- t.cache_hits + 1
  else t.cache_misses <- t.cache_misses + 1;
  (match outcome with
  | "graded" -> t.graded <- t.graded + 1
  | "degraded" -> t.degraded <- t.degraded + 1
  | _ -> t.rejected <- t.rejected + 1);
  t.lat.(t.lat_n mod reservoir_cap) <- ms;
  t.lat_n <- t.lat_n + 1;
  t.lat_sum <- t.lat_sum +. ms;
  (* non-cumulative per-bucket counts; the exposition accumulates *)
  let rec slot i =
    if i >= Array.length latency_buckets then i
    else if ms <= latency_buckets.(i) then i
    else slot (i + 1)
  in
  let i = slot 0 in
  t.lat_hist.(i) <- t.lat_hist.(i) + 1

let record_slow t (e : Proto.slow_entry) =
  (* The newcomer goes last: the stable sort then keeps older entries
     ahead of equal ones, so a tie never evicts the tenth entry. *)
  let sorted =
    List.stable_sort
      (fun (a : Proto.slow_entry) b -> compare b.s_ms a.s_ms)
      (t.slow @ [ e ])
  in
  t.slow <- List.filteri (fun i _ -> i < slowlog_cap) sorted

let slowlog t = t.slow

let record_diags t counts =
  List.iter
    (fun (pass, n) ->
      if n > 0 then
        let prev =
          match Hashtbl.find_opt t.diag_counts pass with
          | Some p -> p
          | None -> 0
        in
        Hashtbl.replace t.diag_counts pass (prev + n))
    counts

let observe_queue_depth t d = if d > t.queue_max then t.queue_max <- d

let percentile t p =
  let a = Array.sub t.lat 0 (min t.lat_n reservoir_cap) in
  Array.sort compare a;
  Jfeed_trace.Trace.nearest_rank a p

(* ------------------------------------------------------------------ *)
(* The metrics table.  One row per metric: its exposition family (when
   it has one), its [stats] path (when it has one) and its samples.
   [stats] lists the rows that have a path, in table order; the
   exposition lists the rows that have a family, in table order. *)

type kind = Counter | Gauge | Histogram
type value = Int of int | Float of float

type sample = {
  suffix : string;
  labels : (string * string) list;
  value : value;
}

type row = {
  family : string option;
  help : string;
  kind : kind;
  path : string list option;
  samples : sample list;
}

type serving = {
  shard_counters : (int * int) array;
  conns : int;
  store : (int * int * int * int) option;
}

type view = {
  cache_size : int;
  cache_cap : int;
  queue_depth : int;
  queue_cap : int;
  serving : serving option;
  slo : (float * float) option;
  events : (int * int * int) option;
}

let sample ?(suffix = "") ?(labels = []) value = { suffix; labels; value }
let int n = [ sample (Int n) ]
let by label = List.map (fun (l, v) -> sample ~labels:[ (label, l) ] v)

let row kind ?path family help samples =
  { family = Some family; help; kind; path; samples }

let counter = row Counter
let gauge = row Gauge

(* A [stats] field with no exposition family. *)
let field path samples =
  { family = None; help = ""; kind = Gauge; path = Some path; samples }

let table t v =
  let per_pass ids =
    let n p = Option.value ~default:0 (Hashtbl.find_opt t.diag_counts p) in
    by "pass" (List.map (fun p -> (p, Int (n p))) ids)
  in
  (* [lat_hist] counts per bucket; the exposition's buckets are
     cumulative. *)
  let cum = Array.copy t.lat_hist in
  for i = 1 to Array.length cum - 1 do
    cum.(i) <- cum.(i - 1) + cum.(i)
  done;
  let buckets =
    List.mapi
      (fun i bound ->
        sample ~suffix:"_bucket"
          ~labels:[ ("le", Printf.sprintf "%g" bound) ]
          (Int cum.(i)))
      (Array.to_list latency_buckets)
  in
  let serving =
    match v.serving with
    | None -> []
    | Some s ->
        let per_shard f =
          by "shard"
            (Array.to_list
               (Array.mapi (fun i c -> (string_of_int i, Int (f c)))
                  s.shard_counters))
        in
        [
          counter "jfeed_shed_total" ~path:[ "admission"; "shed" ]
            "Grade requests refused by admission control." (int t.shed);
          counter "jfeed_admission_degraded_total"
            ~path:[ "admission"; "degraded" ]
            "Grade requests admitted past the watermark on the degraded \
             budget."
            (int t.degraded_admission);
          field [ "shards" ] (int (Array.length s.shard_counters));
          gauge "jfeed_connections_active" ~path:[ "conns" ]
            "Open client connections." (int s.conns);
          counter "jfeed_cache_shard_hits_total"
            "Result-cache hits, per shard." (per_shard fst);
          counter "jfeed_cache_shard_misses_total"
            "Result-cache misses, per shard." (per_shard snd);
        ]
        @
        match s.store with
        | None -> []
        | Some (recovered, dropped, appended, compactions) ->
            [
              gauge "jfeed_store_recovered_records"
                ~path:[ "store"; "recovered" ]
                "Durable-store records replayed at boot." (int recovered);
              gauge "jfeed_store_dropped_bytes"
                ~path:[ "store"; "dropped_bytes" ]
                "Torn-tail bytes truncated at boot." (int dropped);
              counter "jfeed_store_appended_total"
                ~path:[ "store"; "appended" ]
                "Records appended to the durable store this run."
                (int appended);
              counter "jfeed_store_compactions_total"
                ~path:[ "store"; "compactions" ]
                "Durable-store compactions this run." (int compactions);
            ]
  in
  let slo =
    match v.slo with
    | None -> []
    | Some (slo_ms, target) ->
        [
          gauge "jfeed_slo_latency_ms" "The grade-latency objective."
            [ sample (Float slo_ms) ];
          gauge "jfeed_slo_target"
            "The availability objective (fraction of requests within the \
             latency objective)."
            [ sample (Float target) ];
          counter "jfeed_slo_good_total" ~path:[ "slo"; "good" ]
            "Grade responses within the latency objective." (int t.slo_good);
          counter "jfeed_slo_bad_total" ~path:[ "slo"; "bad" ]
            "Grade responses over the latency objective, sheds included."
            (int t.slo_bad);
          gauge "jfeed_slo_burn_rate" ~path:[ "slo"; "burn" ]
            "Error-budget burn rate over a trailing window (1.0 = \
             sustainable)."
            (by "window"
               (List.map
                  (fun (w, secs) ->
                    (w, Float (burn_rate t ~target ~window_s:secs)))
                  [ ("1m", 60.0); ("5m", 300.0); ("1h", 3600.0) ]));
        ]
  in
  let events =
    match v.events with
    | None -> []
    | Some (emitted, dropped, rotations) ->
        [
          counter "jfeed_events_emitted_total"
            "Lifecycle events accepted into the event-log ring." (int emitted);
          counter "jfeed_events_dropped_total"
            "Lifecycle events discarded because the ring was full."
            (int dropped);
          counter "jfeed_events_rotations_total" "Event-log file rotations."
            (int rotations);
        ]
  in
  [
    counter "jfeed_requests_total" ~path:[ "requests" ]
      "Request lines handled, any op." (int t.requests);
    counter "jfeed_grades_total" ~path:[ "grades" ]
      "Grade requests answered (cached or not)." (int t.grades);
    field [ "stats" ] (int t.stats_reqs);
    counter "jfeed_errors_total" ~path:[ "errors" ] "Error responses emitted."
      (int t.errors);
    counter "jfeed_cache_hits_total" ~path:[ "cache"; "hits" ]
      "Result-cache hits, in-flight duplicates included." (int t.cache_hits);
    counter "jfeed_cache_misses_total" ~path:[ "cache"; "misses" ]
      "Result-cache misses." (int t.cache_misses);
    gauge "jfeed_cache_entries" ~path:[ "cache"; "size" ]
      "Result-cache occupancy." (int v.cache_size);
    field [ "cache"; "cap" ] (int v.cache_cap);
    counter "jfeed_outcomes_total" ~path:[ "outcomes" ]
      "Grade responses by outcome class."
      (by "class"
         [
           ("graded", Int t.graded);
           ("degraded", Int t.degraded);
           ("rejected", Int t.rejected);
         ]);
    counter "jfeed_diagnostics_total" ~path:[ "diagnostics" ]
      "Static-analysis findings delivered, by pass."
      (per_pass Jfeed_analysis.Passes.pass_ids);
    gauge "jfeed_queue_depth" ~path:[ "queue"; "depth" ]
      "Grade requests queued when scraped." (int v.queue_depth);
    gauge "jfeed_queue_depth_max" ~path:[ "queue"; "max" ]
      "Deepest grade queue observed." (int t.queue_max);
    field [ "queue"; "cap" ] (int v.queue_cap);
  ]
  @ serving
  @ [
      field [ "latency_ms"; "p50" ] [ sample (Float (percentile t 0.50)) ];
      field [ "latency_ms"; "p95" ] [ sample (Float (percentile t 0.95)) ];
      row Histogram "jfeed_grade_latency_ms"
        "Grade service time, milliseconds."
        (buckets
        @ [
            sample ~suffix:"_bucket" ~labels:[ ("le", "+Inf") ] (Int t.lat_n);
            sample ~suffix:"_sum" (Float t.lat_sum);
            sample ~suffix:"_count" (Int t.lat_n);
          ]);
      counter "jfeed_absint_diagnostics_total" ~path:[ "absint" ]
        "Abstract-interpretation findings delivered, by pass."
        (per_pass Jfeed_absint.Passes.pass_ids);
    ]
  @ slo
  @ [
      (* Build identity: the same data as [jfeed version], value always
         1 (the Prometheus build_info idiom). *)
      gauge "jfeed_build_info" "Build and knowledge-base identity."
        [
          sample
            ~labels:
              [
                ("version", Build.version);
                ("kb_digest", Jfeed_kb.Bundles.revision ());
              ]
            (Int 1);
        ];
      counter "jfeed_traces_retained_total"
        "Requests whose full span tree was retained by tail-based sampling."
        (int t.traces_retained);
    ]
  @ events
  @ [
      (* Process-wide atomics, not per-server state: they move with
         every grading and repair call in this process. *)
      counter "jfeed_plan_searches_total"
        "Plan-driven matcher searches started (prefilter rejections \
         included)."
        (int (Jfeed_core.Plan.searches ()));
      counter "jfeed_plan_prefilter_rejects_total"
        "Matcher searches answered by the fingerprint prefilter without \
         backtracking."
        (int (Jfeed_core.Plan.prefilter_rejects ()));
      counter "jfeed_plan_steps_total"
        "Candidate-extension steps taken by plan-driven searches."
        (int (Jfeed_core.Plan.steps_spent ()));
      counter "jfeed_dedup_classes_total"
        "Batch submission equivalence classes graded."
        (int (Jfeed_robust.Pipeline.dedup_classes ()));
      counter "jfeed_dedup_replayed_total"
        "Batch submissions answered by replaying their class \
         representative."
        (int (Jfeed_robust.Pipeline.dedup_replayed ()));
      counter "jfeed_repair_candidates_total"
        "Candidate edits screened by repair searches."
        (int (Jfeed_repair.Repair.candidates_total ()));
      counter "jfeed_repair_found_total"
        "Repair searches that found a passing fix."
        (int (Jfeed_repair.Repair.found_total ()));
      counter "jfeed_repair_fuel_total"
        "Interpreter fuel spent screening repair candidates."
        (int (Jfeed_repair.Repair.fuel_total ()));
    ]

(* [stats]: one leaf per sample, its path extended by its label
   values; consecutive leaves that share a first key nest under it. *)
let stats t v =
  (* %.3g: three significant digits whatever the magnitude — a 40 µs
     p50 renders as 0.0412, not the 0.000 that fixed-point %.3f gave. *)
  let leaf = function
    | Int n -> string_of_int n
    | Float x -> Printf.sprintf "%.3g" x
  in
  let rec fields = function
    | [] -> []
    | ([ k ], x) :: rest ->
        Printf.sprintf {|"%s":%s|} (Jfeed_trace.Trace.json_escape k) (leaf x)
        :: fields rest
    | (k :: _, _) :: _ as leaves ->
        let rec nest acc = function
          | (k' :: (_ :: _ as p), x) :: rest when k' = k ->
              nest ((p, x) :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let inner, rest = nest [] leaves in
        Printf.sprintf {|"%s":{%s}|} (Jfeed_trace.Trace.json_escape k)
          (String.concat "," (fields inner))
        :: fields rest
    | ([], _) :: rest -> fields rest
  in
  List.concat_map
    (fun r ->
      match r.path with
      | None -> []
      | Some path ->
          List.map
            (fun s -> (path @ List.map snd s.labels, s.value))
            r.samples)
    (table t v)
  |> fields |> String.concat ","

(* The exposition: one family per named row — HELP, TYPE, samples —
   then the OpenMetrics [# EOF] marker, which is also how the JSONL
   client finds the end of this multi-line response. *)
let exposition t v =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      match r.family with
      | None -> ()
      | Some name ->
          Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" name r.help name
            (match r.kind with
            | Counter -> "counter"
            | Gauge -> "gauge"
            | Histogram -> "histogram");
          List.iter
            (fun s ->
              Buffer.add_string b (name ^ s.suffix);
              if s.labels <> [] then
                Printf.bprintf b "{%s}"
                  (String.concat ","
                     (List.map
                        (fun (k, l) -> Printf.sprintf "%s=%S" k l)
                        s.labels));
              (match s.value with
              | Int n -> Printf.bprintf b " %d\n" n
              | Float x -> Printf.bprintf b " %.6g\n" x))
            r.samples)
    (table t v);
  Buffer.add_string b "# EOF";
  Buffer.contents b
