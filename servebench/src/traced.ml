(** The traced run: an in-process replay of a request stream through
    each layer's public functions, in the order the daemon calls them.

    It never runs inside a timed phase.  Every call is wrapped in a span
    recorded by this file (name, start, end, parent span, request id);
    spans stay in memory and are written out at the end.  A layer's
    self time is its span time minus its child spans' time, and every
    per-layer figure is a mean over the replayed requests, so the
    figures add up to the per-request total.

    A miss is replayed stage by stage (the body of
    [Pipeline.assess]) and, separately, through [Pipeline.grade_submission]
    on the same source; the two must produce the same payload, and the
    gap between their times is [pipeline.unattributed_pct]. *)

module Bundles = Jfeed_kb.Bundles
module Spec = Jfeed_gen.Spec
module Budget = Jfeed_budget.Budget
module Parser = Jfeed_java.Parser
module Passes = Jfeed_absint.Passes
module Grader = Jfeed_core.Grader
module Plan = Jfeed_core.Plan
module Runner = Jfeed_ftest.Runner
module Pipeline = Jfeed_robust.Pipeline
module Outcome = Jfeed_robust.Outcome
module Pool = Jfeed_parallel.Pool
module Proto = Jfeed_service.Proto
module Normalize = Jfeed_service.Normalize
module Shards = Jfeed_service.Shards
module Server = Jfeed_service.Server

(** {2 Spans} *)

type span = {
  name : string;
  rid : int;  (** stream index of the request *)
  parent : int;  (** index of the enclosing span, [-1] for a root *)
  t0 : int64;
  mutable t1 : int64;
}

type recorder = {
  mutable spans : span array;
  mutable n : int;
  mutable open_ : int;
  mutable rid : int;
}

let recorder () = { spans = [||]; n = 0; open_ = -1; rid = -1 }

let span r name f =
  let idx = r.n in
  let s = { name; rid = r.rid; parent = r.open_; t0 = Clock.now_ns (); t1 = 0L } in
  if idx = Array.length r.spans then begin
    let bigger = Array.make (max 1024 (2 * idx)) s in
    Array.blit r.spans 0 bigger 0 idx;
    r.spans <- bigger
  end;
  r.spans.(idx) <- s;
  r.n <- idx + 1;
  let saved = r.open_ in
  r.open_ <- idx;
  let finish () =
    s.t1 <- Clock.now_ns ();
    r.open_ <- saved
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let dur_ns s = Int64.sub s.t1 s.t0

(** Self time per span name, summed over every span recorded. *)
let self_ns r =
  let self = Array.init r.n (fun i -> dur_ns r.spans.(i)) in
  for i = 0 to r.n - 1 do
    let p = r.spans.(i).parent in
    if p >= 0 then self.(p) <- Int64.sub self.(p) (dur_ns r.spans.(i))
  done;
  let by_name = Hashtbl.create 32 in
  for i = 0 to r.n - 1 do
    let name = r.spans.(i).name in
    let prev = Option.value ~default:0L (Hashtbl.find_opt by_name name) in
    Hashtbl.replace by_name name (Int64.add prev self.(i))
  done;
  by_name

(** One JSON object per span, in start order. *)
let write_spans r path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      for i = 0 to r.n - 1 do
        let s = r.spans.(i) in
        Printf.fprintf oc
          {|{"id":%d,"name":"%s","rid":%d,"parent":%d,"start_ns":%Ld,"end_ns":%Ld}|}
          i s.name s.rid s.parent s.t0 s.t1;
        output_char oc '\n'
      done)

(** {2 Replay} *)

type counts = {
  mutable hits : int;
  mutable misses : int;
  mutable inserted : int;
  mutable inserted_bytes : int;
  mutable matcher : int;
  mutable pairing : int;
  mutable interp : int;
  mutable searches : int;
  mutable rejects : int;
  mutable step_limit : int;
  mutable mismatches : int;
}

let spent budget stage =
  Option.value ~default:0 (List.assoc_opt stage (Budget.spent_by budget))

(* Pipeline.protect's contract for the two stages that must never
   change an outcome. *)
let or_empty f = try f () with _ -> []

(* The body of Pipeline.assess, one span per stage, over one unlimited
   budget shared by matching and tests exactly as grade_submission
   shares it. *)
let stages r c (b : Bundles.t) src =
  let budget = Budget.unlimited () in
  let prog, srcmap = span r "parse" (fun () -> Parser.parse_program_located src) in
  let reference () = Parser.parse_program (Spec.reference b.Bundles.gen) in
  let oracle_degrees =
    span r "oracle" (fun () -> or_empty (fun () -> Passes.method_degrees (reference ())))
  in
  let diags =
    span r "analysis" (fun () ->
        or_empty (fun () -> Passes.analyze_program ~srcmap ~oracle_degrees prog))
  in
  let s0 = Plan.searches () and j0 = Plan.prefilter_rejects () in
  let grading = span r "match" (fun () -> Grader.grade ~budget b.Bundles.grading prog) in
  c.searches <- c.searches + Plan.searches () - s0;
  c.rejects <- c.rejects + Plan.prefilter_rejects () - j0;
  let expected =
    span r "tests.reference" (fun () ->
        Runner.expected_outputs b.Bundles.suite (reference ()))
  in
  let verdict =
    span r "tests.run" (fun () -> Runner.run ~budget b.Bundles.suite ~expected prog)
  in
  c.matcher <- c.matcher + spent budget "matcher";
  c.pairing <- c.pairing + spent budget "pairing";
  c.interp <- c.interp + spent budget "interp";
  let tests, test_reasons =
    match verdict with
    | Runner.Pass -> (Outcome.Tests_passed, [])
    | Runner.Fail { case; reason } ->
        if reason = "error: step limit exceeded" then c.step_limit <- c.step_limit + 1;
        ( Outcome.Tests_failed (case, reason),
          if reason = "error: fuel budget exhausted" then [ Outcome.Interp_exhausted ]
          else [] )
  in
  let reasons =
    List.map
      (function
        | Grader.Matcher_exhausted id -> Outcome.Matcher_exhausted id
        | Grader.Pairing_exhausted -> Outcome.Pairing_exhausted)
      grading.Grader.truncations
    @ test_reasons
  in
  let report = { Outcome.grading; tests; diags } in
  if reasons = [] then Outcome.Graded report else Outcome.Degraded (report, reasons)

let pipeline_payload (s : Workload.sub) =
  let item = Pipeline.grade_submission ~with_tests:true (Workload.bundle s.assignment) s.source in
  Outcome.to_json ~comments:true item.Pipeline.outcome

let insert c cache key payload =
  Shards.add cache key payload;
  c.inserted <- c.inserted + 1;
  c.inserted_bytes <- c.inserted_bytes + String.length payload

(* One request, decode to encode, as the daemon serves it. *)
let serve_one r c cache line =
  span r "request" (fun () ->
      let assignment, source =
        match span r "proto.decode" (fun () -> Proto.request_of_line line) with
        | Ok (Proto.Grade g) -> (g.assignment, g.source)
        | _ -> failwith "traced run: request line does not decode as a grade"
      in
      let key =
        span r "fingerprint" (fun () ->
            fst
              (Normalize.cache_key ~assignment ~fuel:None ~deadline_s:None
                 ~with_tests:true source))
      in
      match span r "cache.lookup" (fun () -> Shards.find cache key) with
      | Some payload ->
          c.hits <- c.hits + 1;
          ignore
            (span r "proto.encode" (fun () ->
                 Proto.grade_response ~cached:true ~fuel:None payload));
          payload
      | None ->
          c.misses <- c.misses + 1;
          let outcome =
            span r "grade" (fun () -> stages r c (Workload.bundle assignment) source)
          in
          let payload =
            span r "outcome.json" (fun () -> Outcome.to_json ~comments:true outcome)
          in
          span r "cache.insert" (fun () -> insert c cache key payload);
          ignore
            (span r "proto.encode" (fun () ->
                 Proto.grade_response ~cached:false ~fuel:None payload));
          payload)

(** {2 Per-layer metrics} *)

(** Metric name, unit, value — in the order they are reported. *)
type metric = string * string * float

(* Span name → metric name; all times in µs per request. *)
let layer_spans =
  [
    ("proto.decode", "proto.decode_us");
    ("fingerprint", "fingerprint.us");
    ("cache.lookup", "cache.lookup_us");
    ("cache.insert", "cache.insert_us");
    ("proto.encode", "proto.encode_us");
    ("parse", "parse.us");
    ("analysis", "analysis.us");
    ("oracle", "oracle.us");
    ("match", "match.us");
    ("tests.reference", "tests.reference_us");
    ("tests.run", "tests.run_us");
    ("outcome.json", "outcome.json_us");
  ]

(** The spans [Pipeline.grade_submission] covers on a miss. *)
let pipeline_stages =
  [ "parse"; "oracle"; "analysis"; "match"; "tests.reference"; "tests.run" ]

(** Every per-layer metric with its unit, in report order. *)
let metric_units =
  [
    ("proto.decode_us", "us"); ("fingerprint.us", "us"); ("cache.lookup_us", "us");
    ("cache.hit_ratio", "ratio"); ("cache.insert_us", "us"); ("cache.entry_kb", "KB");
    ("proto.encode_us", "us"); ("pool.round_overhead_ms", "ms"); ("parse.us", "us");
    ("analysis.us", "us"); ("oracle.us", "us"); ("match.us", "us");
    ("match.steps", "count"); ("pairing.combos", "count");
    ("match.prefilter_reject_ratio", "ratio"); ("tests.reference_us", "us");
    ("tests.run_us", "us"); ("interp.steps", "count"); ("tests.step_limit_ratio", "ratio");
    ("outcome.json_us", "us"); ("pipeline.us", "us"); ("pipeline.unattributed_pct", "%");
    ("serve.wait_p50_ms", "ms"); ("serve.unattributed_cpu_us", "us");
  ]

type result = {
  metrics : metric list;
  requests : int;  (** requests replayed *)
  mismatches : int;
      (** replays whose payload differs from [grade_submission]'s or
          from the payload the timed run expected *)
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(** [pool_overhead pairs] — mean CPU ms of [Pool.map ~jobs:2] over a
    pair of misses, minus the same pair at [~jobs:1]; the order of the
    two alternates from pair to pair. *)
let pool_overhead pairs =
  let f s = pipeline_payload s in
  let cpu jobs pair =
    let c0 = Clock.cpu_ns () in
    ignore (Pool.map ~jobs ~f pair);
    Clock.ms_between c0 (Clock.cpu_ns ())
  in
  let diffs =
    Array.mapi
      (fun j pair ->
        if j mod 2 = 0 then
          let one = cpu 1 pair in
          cpu 2 pair -. one
        else
          let two = cpu 2 pair in
          two -. cpu 1 pair)
      pairs
  in
  Stats.mean diffs

(** Replay the first [workload.traced] requests of the stream.
    [warmup_payloads.(j)] and [expected.(k)] are the payloads of
    [warmup.(j)] and [originals.(k)]; [latency_ms.(i)] is request [i]'s
    end-to-end latency in the timed run and [cpu_ms_per_req] the
    daemon's CPU per request there. *)
let run ?spans_path (st : Workload.stream) ~warmup_payloads ~expected
    ~latency_ms ~cpu_ms_per_req =
  let w = st.Workload.workload in
  let n = min st.count w.Workload.traced in
  let cfg = Server.default_config in
  let cache = Shards.create ~shards:cfg.Server.shards ~cap:cfg.Server.cache_cap in
  let c =
    {
      hits = 0; misses = 0; inserted = 0; inserted_bytes = 0; matcher = 0;
      pairing = 0; interp = 0; searches = 0; rejects = 0; step_limit = 0;
      mismatches = 0;
    }
  in
  (* The daemon's cache when timing starts: the warm-ups, then (for
     resubmit) the warm set. *)
  Array.iteri
    (fun j (s : Workload.sub) -> insert c cache s.key warmup_payloads.(j))
    st.warmup;
  Array.iteri
    (fun k (s : Workload.sub) -> insert c cache s.key expected.(k))
    st.warm;
  let fresh = w.Workload.kind <> Workload.Resubmit in
  let r = recorder () in
  let service_ms = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let k = i mod Array.length st.lines in
    let sub = st.lines.(k) in
    let line = Workload.request_line sub in
    r.rid <- i;
    let pipeline () =
      let b = Workload.bundle sub.assignment in
      let item =
        span r "pipeline" (fun () ->
            Pipeline.grade_submission ~with_tests:true b sub.source)
      in
      Outcome.to_json ~comments:true item.Pipeline.outcome
    in
    (* Alternate which of the two runs first, so neither one always
       finds the other's warm caches. *)
    let pipe_first = if fresh && i mod 2 = 0 then Some (pipeline ()) else None in
    let root = r.n in
    let payload = serve_one r c cache line in
    service_ms.(i) <- Clock.ms_between r.spans.(root).t0 r.spans.(root).t1;
    let pipe =
      match pipe_first with
      | Some p -> Some p
      | None -> if fresh then Some (pipeline ()) else None
    in
    let pipe_differs = match pipe with Some p -> p <> payload | None -> false in
    if payload <> expected.(st.origin.(k)) || pipe_differs then
      c.mismatches <- c.mismatches + 1
  done;
  (match spans_path with Some p -> write_spans r p | None -> ());
  let self = self_ns r in
  let per_req name =
    match Hashtbl.find_opt self name with
    | Some ns -> Int64.to_float ns /. 1e3 /. float_of_int n
    | None -> 0.0
  in
  let layers = List.map (fun (span_name, metric) -> (metric, per_req span_name)) layer_spans in
  let layer m = List.assoc m layers in
  let pipeline_us = per_req "pipeline" in
  let stage_sum = List.fold_left (fun acc s -> acc +. per_req s) 0.0 pipeline_stages in
  let layer_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers in
  let pairs =
    Array.init
      (min w.Workload.pool_pairs (min n st.count / 2))
      (fun j -> [| st.lines.(2 * j); st.lines.((2 * j) + 1) |])
  in
  let waits = Array.mapi (fun i s -> latency_ms.(i) -. s) service_ms in
  let per_req_count v = float_of_int v /. float_of_int n in
  let value = function
    | "cache.hit_ratio" -> ratio c.hits n
    | "cache.entry_kb" -> ratio c.inserted_bytes c.inserted /. 1024.0
    | "pool.round_overhead_ms" -> if pairs = [||] then 0.0 else pool_overhead pairs
    | "match.steps" -> per_req_count c.matcher
    | "pairing.combos" -> per_req_count c.pairing
    | "match.prefilter_reject_ratio" -> ratio c.rejects c.searches
    | "interp.steps" -> per_req_count c.interp
    | "tests.step_limit_ratio" -> ratio c.step_limit c.misses
    | "pipeline.us" -> pipeline_us
    | "pipeline.unattributed_pct" ->
        if pipeline_us = 0.0 then 0.0
        else 100.0 *. (pipeline_us -. stage_sum) /. pipeline_us
    | "serve.wait_p50_ms" -> Stats.median waits
    | "serve.unattributed_cpu_us" -> (cpu_ms_per_req *. 1000.0) -. layer_sum
    | m -> layer m
  in
  {
    metrics = List.map (fun (m, unit) -> (m, unit, value m)) metric_units;
    requests = n;
    mismatches = c.mismatches;
  }
