(** The persistent grading daemon.  See server.mli. *)

module Bundles = Jfeed_kb.Bundles
module Pipeline = Jfeed_robust.Pipeline
module Outcome = Jfeed_robust.Outcome
module Pool = Jfeed_parallel.Pool
module Trace = Jfeed_trace.Trace
module Events = Jfeed_trace.Events

type config = {
  cache_cap : int;
  queue_cap : int;
  jobs : int;
  fuel : int option;
  deadline_s : float option;
  with_tests : bool;
  shards : int;
  cache_dir : string option;
  backlog : int;
  watermark : int option;
  shed_fuel : int option;
  event_log : string option;
  event_ring : int option;
  event_rotate : int option;
  trace_sample : int option;
  slow_ms : float option;
  slo_ms : float option;
  slo_target : float;
}

let default_config =
  {
    cache_cap = 10_000;
    queue_cap = 64;
    jobs = 1;
    fuel = None;
    deadline_s = None;
    with_tests = true;
    shards = 8;
    cache_dir = None;
    backlog = 16;
    watermark = None;
    shed_fuel = None;
    event_log = None;
    event_ring = None;
    event_rotate = None;
    trace_sample = None;
    slow_ms = None;
    slo_ms = None;
    slo_target = 0.999;
  }

(* Request-scoped telemetry is on iff any of its knobs is: then rids
   are minted for rid-less grade requests and echoed, lifecycle events
   are emitted, traces retained, SLO verdicts recorded.  With all four
   off (the default, and every frozen golden), no response byte
   changes — a client-supplied "rid" is still echoed, since sending
   one is itself an opt-in. *)
let telemetry c =
  c.event_log <> None || c.trace_sample <> None || c.slow_ms <> None
  || c.slo_ms <> None

(* The retention threshold for "slow": an explicit --slow-ms, else the
   SLO latency objective (a request that blew the objective is exactly
   the one whose trace the operator wants). *)
let slow_threshold c =
  match c.slow_ms with Some _ as s -> s | None -> c.slo_ms

(* ------------------------------------------------------------------ *)
(* Non-blocking-capable line reader.

   The loop must distinguish "a full line is available right now" (keep
   filling the batch) from "the client is waiting for answers" (stop and
   grade), so input is buffered here rather than through stdlib
   channels: [read_line] blocks, [poll_line] only consumes what a
   0-timeout [select] says is ready. *)

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* unconsumed byte count *)
  mutable eof : bool;
}

let reader_of_fd fd = { fd; buf = Bytes.create 65536; start = 0; len = 0; eof = false }

let compact r =
  if r.start > 0 then begin
    Bytes.blit r.buf r.start r.buf 0 r.len;
    r.start <- 0
  end;
  if r.len = Bytes.length r.buf then
    r.buf <- Bytes.extend r.buf 0 (Bytes.length r.buf)

(* One [read(2)]; true when it brought bytes.  False means end of input
   (which sets [eof]) or, on a non-blocking descriptor, nothing ready. *)
let fill r =
  compact r;
  match Sysx.read r.fd r.buf (r.start + r.len) (Bytes.length r.buf - r.start - r.len) with
  | `Read 0 ->
      r.eof <- true;
      false
  | `Read n ->
      r.len <- r.len + n;
      true
  | `Again -> false

let readable_now fd =
  match Sysx.select [ fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false

let take_buffered_line r =
  let rec find i =
    if i >= r.start + r.len then None
    else if Bytes.get r.buf i = '\n' then Some i
    else find (i + 1)
  in
  match find r.start with
  | Some nl ->
      let strip = if nl > r.start && Bytes.get r.buf (nl - 1) = '\r' then 1 else 0 in
      let line = Bytes.sub_string r.buf r.start (nl - r.start - strip) in
      r.len <- r.len - (nl - r.start + 1);
      r.start <- nl + 1;
      Some line
  | None ->
      if r.eof && r.len > 0 then begin
        (* final line without a newline *)
        let line = Bytes.sub_string r.buf r.start r.len in
        r.start <- 0;
        r.len <- 0;
        Some line
      end
      else None

(* Blocking descriptors only (the stdio path); [`Again] can't happen
   there, but if it ever did the select-wait turns it into a retry, not
   a spin. *)
let rec read_line r =
  match take_buffered_line r with
  | Some line -> Some line
  | None when r.eof -> None
  | None ->
      if not (fill r || r.eof) then ignore (Sysx.select [ r.fd ] [] [] (-1.0));
      read_line r

let rec poll_line r =
  match take_buffered_line r with
  | Some line -> Some line
  | None ->
      if r.eof then None
      else if readable_now r.fd then begin
        ignore (fill r);
        poll_line r
      end
      else None

(* ------------------------------------------------------------------ *)
(* Server state and request handling                                   *)

(* What the cache stores per key: everything needed to replay the
   response byte-for-byte (minus the envelope's [id]/[cached] fields). *)
type entry = {
  outcome_class : string;
  fuel_spent : int option;  (* the response's fuel field, when budgeted *)
  diag_counts : (string * int) list;  (* per-pass analysis findings *)
  result_json : string;
}

(* The durable store's value bytes.  Header lines (class, fuel, diag
   count, one diag per line), then the result JSON raw to the end —
   self-delimiting because everything before it is newline-framed and
   pass ids contain neither spaces nor newlines. *)
let encode_entry e =
  let b = Buffer.create (String.length e.result_json + 64) in
  Buffer.add_string b e.outcome_class;
  Buffer.add_char b '\n';
  Buffer.add_string b
    (match e.fuel_spent with Some n -> string_of_int n | None -> "-");
  Buffer.add_char b '\n';
  Buffer.add_string b (string_of_int (List.length e.diag_counts));
  Buffer.add_char b '\n';
  List.iter
    (fun (pass, n) ->
      Buffer.add_string b pass;
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b '\n')
    e.diag_counts;
  Buffer.add_string b e.result_json;
  Buffer.contents b

let decode_entry s =
  let ( let* ) = Option.bind in
  let* e1 = String.index_opt s '\n' in
  let outcome_class = String.sub s 0 e1 in
  let* e2 = String.index_from_opt s (e1 + 1) '\n' in
  let fuel_field = String.sub s (e1 + 1) (e2 - e1 - 1) in
  let* fuel_spent =
    if fuel_field = "-" then Some None
    else Option.map Option.some (int_of_string_opt fuel_field)
  in
  let* e3 = String.index_from_opt s (e2 + 1) '\n' in
  let* ndiags = int_of_string_opt (String.sub s (e2 + 1) (e3 - e2 - 1)) in
  if ndiags < 0 then None
  else
    let rec diags i k acc =
      if k = 0 then Some (List.rev acc, i)
      else
        let* e = String.index_from_opt s i '\n' in
        let* sp = String.index_from_opt s i ' ' in
        if sp >= e then None
        else
          let* n = int_of_string_opt (String.sub s (sp + 1) (e - sp - 1)) in
          diags (e + 1) (k - 1) ((String.sub s i (sp - i), n) :: acc)
    in
    let* diag_counts, i = diags (e3 + 1) ndiags [] in
    Some
      {
        outcome_class;
        fuel_spent;
        diag_counts;
        result_json = String.sub s i (String.length s - i);
      }

type state = {
  config : config;
  cache : entry Shards.t;
  store : Store.t option;
  metrics : Metrics.t;
  events : Events.t option;
  rid_seed : int;  (* pid, so rids from successive daemons differ *)
  mutable rid_ctr : int;  (* minted-rid counter *)
  mutable seq_ctr : int;  (* grade-miss counter for 1-in-N sampling *)
}

let make_state config =
  let cache = Shards.create ~shards:config.shards ~cap:config.cache_cap in
  let store =
    match config.cache_dir with
    | None -> None
    | Some dir ->
        (* Boot-time replay: every valid record becomes a warm cache
           entry (via the pure-memory [Shards.add], so nothing is
           re-appended); a record whose value fails to decode — an
           older format, a manual edit — is skipped, not fatal. *)
        let t, _recovery =
          Store.open_dir dir ~f:(fun ~key ~value ->
              match decode_entry value with
              | Some e -> Shards.add cache key e
              | None -> ())
        in
        Some t
  in
  let events =
    Option.map
      (fun dir ->
        Events.create ?ring_cap:config.event_ring
          ?rotate_bytes:config.event_rotate dir)
      config.event_log
  in
  {
    config;
    cache;
    store;
    metrics = Metrics.create ();
    events;
    rid_seed = Unix.getpid ();
    rid_ctr = 0;
    seq_ctr = 0;
  }

(* Graceful close: compact first when the log carries dead weight
   (evicted or superseded records), so restarts replay only the live
   set.  [kill -9] skips this — recovery replays the raw append log. *)
let close_state st =
  Option.iter Events.close st.events;
  Option.iter
    (fun s ->
      let r = Store.recovery s in
      if r.Store.recovered + Store.appended s > Shards.size st.cache then
        Store.compact s
          (List.rev
             (Shards.fold_lru
                (fun key e acc -> (key, encode_entry e) :: acc)
                st.cache []));
      Store.close s)
    st.store

type grade_req = {
  g_id : string option;
  g_rid : string option;  (* correlation id: client-supplied or minted *)
  g_assignment : string;
  g_source : string;
  g_fuel : int option;
  g_deadline : float option;
  g_with_tests : bool;
  g_enq_ms : float;  (* monotonic admission instant, for queue-wait *)
}

type miss = {
  m_bundle : Bundles.t;
  m_key : string;
  m_req : grade_req;
  m_sample : bool;  (* 1-in-N trace retention, decided when it became a miss *)
}

(* A grade request after its cache lookup.  [Fresh] still has to be
   graded, unless a computation of the same key is already under way;
   each loop keeps its own table of those. *)
type resolved =
  | Err of string
  | Hit of entry * float  (* lookup ms *)
  | Fresh of miss

(* Monotonic, nanosecond-backed: wall-clock steps (NTP, suspend) can
   no longer produce negative or wildly wrong latencies, and the
   sub-millisecond service times the percentiles now render with three
   significant digits are actually measured, not rounded away. *)
let now_ms () = Int64.to_float (Trace.now_ns ()) /. 1e6

(* Emit one lifecycle event iff the daemon has an event log and the
   request a correlation id.  Every call site runs with the serving
   state to itself (the stdio loop's one domain, or the socket loop's
   lock), matching the ring's one-writer contract. *)
let emit st ~rid ev attrs =
  match (st.events, rid) with
  | Some e, Some rid -> Events.emit e ~rid ~ev attrs
  | _ -> ()

let resolve st r =
  match Bundles.find r.g_assignment with
  | None ->
      Err
        (Printf.sprintf "unknown assignment %S; try: jfeed assignments"
           r.g_assignment)
  | Some b -> (
      let t0 = now_ms () in
      let key, _fp =
        Normalize.cache_key ~assignment:r.g_assignment ~fuel:r.g_fuel
          ~deadline_s:r.g_deadline ~with_tests:r.g_with_tests r.g_source
      in
      match Shards.find st.cache key with
      | Some e -> Hit (e, now_ms () -. t0)
      | None -> Fresh { m_bundle = b; m_key = key; m_req = r; m_sample = false })

(* The 1-in-N sampling decision, made as a request becomes a miss, in
   the order the loop takes them, so it does not depend on the number
   of grading domains. *)
let sampled st m =
  match st.config.trace_sample with
  | Some n when m.m_req.g_rid <> None ->
      st.seq_ctr <- st.seq_ctr + 1;
      { m with m_sample = st.seq_ctr mod n = 0 }
  | _ -> m

let grade_miss cfg (m : miss) =
  let r = m.m_req in
  let t0 = now_ms () in
  (* Every miss runs traced so the slowlog can show where a slow
     request spent its time.  The tracer is this domain's reusable
     scratch buffer, allocated once per domain for its lifetime and
     written by that domain alone; anything worth keeping is
     serialized below, before the domain's next miss recycles it. *)
  let trace = Trace.scratch () in
  let item =
    Pipeline.grade_submission ?fuel:r.g_fuel ?deadline_s:r.g_deadline
      ?rid:r.g_rid ~with_tests:r.g_with_tests ~name:"<request>" ~trace
      m.m_bundle r.g_source
  in
  let ms = now_ms () -. t0 in
  let entry =
    {
      outcome_class = Outcome.classify item.Pipeline.outcome;
      fuel_spent =
        (match r.g_fuel with
        | Some _ -> Some item.Pipeline.fuel_spent
        | None -> None);
      diag_counts =
        (match Outcome.report item.Pipeline.outcome with
        | Some rep ->
            Jfeed_absint.Passes.count_by_pass rep.Outcome.diags
        | None -> []);
      result_json = Outcome.to_json ~comments:true item.Pipeline.outcome;
    }
  in
  let slow =
    {
      Proto.s_rid = r.g_rid;
      s_assignment = r.g_assignment;
      s_ms = ms;
      s_outcome = entry.outcome_class;
      s_stages =
        List.map
          (fun (stage, (_n, ns)) -> (stage, Int64.to_float ns /. 1e6))
          (Trace.rollup trace);
    }
  in
  (* Tail-based retention: keep the full span tree only when the
     request turned out interesting — slow, not cleanly graded, or
     1-in-N sampled.  Serialized here, in the grading domain, because
     the scratch buffer is recycled by this domain's next miss. *)
  let retained =
    r.g_rid <> None
    && (m.m_sample
       || entry.outcome_class <> "graded"
       ||
       match slow_threshold cfg with
       | Some th -> ms >= th
       | None -> false)
  in
  let spans = if retained then Some (Trace.spans_json trace) else None in
  (entry, ms, slow, spans)

(* An exception escaping the pipeline becomes the miss's error answer
   (and its duplicates'), never a dead daemon or a stranded request. *)
let grade_guarded cfg m =
  match grade_miss cfg m with
  | graded -> Ok graded
  | exception e -> Error ("internal error: " ^ Printexc.to_string e)

(* The answers.  Each records its request in the metrics and the event
   log and returns its response line.  [reply] is the one way out for
   an answered grade, hit, miss or duplicate: counters, its cache
   events, the SLO verdict, the respond event and the response line.
   Total service time runs from admission, so queue wait counts against
   the objective exactly as the client experienced it. *)
let reply st r e ~cached ~ms events =
  Metrics.record_grade st.metrics ~outcome:e.outcome_class ~hit:cached ~ms;
  Metrics.record_diags st.metrics e.diag_counts;
  List.iter (fun (ev, attrs) -> emit st ~rid:r.g_rid ev attrs) events;
  let total = now_ms () -. r.g_enq_ms in
  Option.iter
    (fun slo -> Metrics.record_slo st.metrics ~ok:(total <= slo))
    st.config.slo_ms;
  emit st ~rid:r.g_rid "respond"
    [
      ("outcome", Events.S e.outcome_class);
      ("cached", Events.I (if cached then 1 else 0));
      ("queue_ms", Events.F (total -. ms));
      ("total_ms", Events.F total);
    ];
  Proto.grade_response ?id:r.g_id ?rid:r.g_rid ~cached ~fuel:e.fuel_spent
    e.result_json

let answer_error st r msg =
  Metrics.record_error st.metrics;
  emit st ~rid:r.g_rid "respond" [ ("outcome", Events.S "error") ];
  Proto.error_response ?id:r.g_id ?rid:r.g_rid msg

let answer_hit st r e ~ms =
  reply st r e ~cached:true ~ms [ ("cache_hit", [ ("ms", Events.F ms) ]) ]

let answer_miss st m = function
  | Error msg -> answer_error st m.m_req msg
  | Ok (e, ms, slow, spans) ->
      Shards.add st.cache m.m_key e;
      (* Fresh results — and only fresh results — reach the durable
         log; replayed or duplicate hits are already on disk. *)
      Option.iter
        (fun s -> Store.append s ~key:m.m_key ~value:(encode_entry e))
        st.store;
      Metrics.record_slow st.metrics slow;
      let trace =
        match spans with
        | Some spans ->
            Metrics.record_trace_retained st.metrics;
            [ ("trace", [ ("spans", Events.R spans) ]) ]
        | None -> []
      in
      reply st m.m_req e ~cached:false ~ms
        (("cache_miss", [])
        :: ( "grade_done",
             [ ("ms", Events.F ms); ("outcome", Events.S e.outcome_class) ] )
        :: trace)

(* Served from an in-flight computation of the same key: a hit in every
   observable way, it just wasn't stored yet when the lookup ran.  The
   requester still waited for that grading, so its service time — not
   zero — is what lands in the latency reservoir. *)
let answer_dup st r = function
  | Error msg -> answer_error st r msg
  | Ok (e, ms, _, _) ->
      reply st r e ~cached:true ~ms
        [ ("cache_hit", [ ("ms", Events.F ms); ("dup", Events.I 1) ]) ]

(* The stdio loop's grading round: one batch against the cache + pool,
   one response line per request, in request order.  Duplicates within
   the batch collapse onto one computation. *)
let grade_batch st (batch : grade_req list) : string list =
  Metrics.observe_queue_depth st.metrics (List.length batch);
  let misses = ref [] in
  let n_misses = ref 0 in
  let inflight = Hashtbl.create 16 in
  let resolved =
    List.map
      (fun r ->
        match resolve st r with
        | Fresh m -> (
            match Hashtbl.find_opt inflight m.m_key with
            | Some i -> (r, `Dup i)
            | None ->
                let i = !n_misses in
                Hashtbl.add inflight m.m_key i;
                incr n_misses;
                misses := sampled st m :: !misses;
                (r, `Miss i))
        | Err msg -> (r, `Err msg)
        | Hit (e, ms) -> (r, `Hit (e, ms)))
      batch
  in
  let miss_arr = Array.of_list (List.rev !misses) in
  (* The parallel part: only genuine cache misses reach the pool, each
     with its own fresh budget (jobs-invariant, like the batch CLI). *)
  let results =
    Pool.map ~jobs:st.config.jobs ~f:(grade_guarded st.config) miss_arr
  in
  let lines =
    List.map
      (fun (r, res) ->
        match res with
        | `Err msg -> answer_error st r msg
        | `Hit (e, ms) -> answer_hit st r e ~ms
        | `Miss i -> answer_miss st miss_arr.(i) results.(i)
        | `Dup i -> answer_dup st r results.(i))
      resolved
  in
  Option.iter Events.flush st.events;
  lines

(* What a stats or metrics request sees beyond the counters; [conns]
   is given by the socket daemon alone, which adds the serving tier. *)
let view ?conns st ~queue_depth =
  {
    Metrics.cache_size = Shards.size st.cache;
    cache_cap = st.config.cache_cap;
    queue_depth;
    queue_cap = st.config.queue_cap;
    serving =
      Option.map
        (fun conns ->
          {
            Metrics.shard_counters = Shards.counters st.cache;
            conns;
            store =
              Option.map
                (fun s ->
                  let r = Store.recovery s in
                  ( r.Store.recovered,
                    r.Store.dropped_bytes,
                    Store.appended s,
                    Store.compactions s ))
                st.store;
          })
        conns;
    slo = Option.map (fun ms -> (ms, st.config.slo_target)) st.config.slo_ms;
    events =
      Option.map
        (fun e -> (Events.emitted e, Events.dropped e, Events.rotations e))
        st.events;
  }

(* One request line, decoded and counted. *)
type decoded =
  | Grade of grade_req  (* admitted: defaults filled, rid minted *)
  | Reply of string  (* the error line of a request that didn't decode *)
  | Shutdown of string
  | Render of (Metrics.view -> string)  (* stats, metrics or slowlog *)

(* The decoder both loops call; [None] for a blank line, which is
   neither counted nor answered.  A control request is counted here and
   renders when its loop calls it back, with that loop's view.

   Request fields override the server defaults; an absent field means
   "whatever the daemon was started with".  The correlation id is the
   client's when supplied, else minted here — at admission — when
   telemetry is on; either way it is echoed in the response and stamps
   every event and retained trace of this request's lifecycle. *)
let decode st line =
  if String.trim line = "" then None
  else begin
    Metrics.record_request st.metrics;
    Some
      (match Proto.request_of_line line with
      | Error (id, msg) ->
          Metrics.record_error st.metrics;
          Reply (Proto.error_response ?id msg)
      | Ok (Proto.Shutdown { id }) -> Shutdown (Proto.shutdown_response ?id ())
      | Ok (Proto.Stats { id }) ->
          Metrics.record_stats_req st.metrics;
          Render
            (fun v -> Proto.stats_response ?id (Metrics.stats st.metrics v))
      | Ok (Proto.Metrics { id = _ }) ->
          (* The one multi-line response: a Prometheus exposition block,
             "# EOF"-terminated (see Proto).  Counted as a stats-class
             request. *)
          Metrics.record_stats_req st.metrics;
          Render (Metrics.exposition st.metrics)
      | Ok (Proto.Slowlog { id }) ->
          Metrics.record_stats_req st.metrics;
          Render
            (fun _ -> Proto.slowlog_response ?id (Metrics.slowlog st.metrics))
      | Ok (Proto.Grade g) ->
          let config = st.config in
          let either req dflt = match req with Some _ -> req | None -> dflt in
          let g_rid =
            match g.rid with
            | Some _ -> g.rid
            | None ->
                if telemetry config then begin
                  st.rid_ctr <- st.rid_ctr + 1;
                  Some (Printf.sprintf "r%d-%d" st.rid_seed st.rid_ctr)
                end
                else None
          in
          emit st ~rid:g_rid "admit" [ ("assignment", Events.S g.assignment) ];
          Grade
            {
              g_id = g.id;
              g_rid;
              g_assignment = g.assignment;
              g_source = g.source;
              g_fuel = either g.fuel config.fuel;
              g_deadline = either g.deadline_s config.deadline_s;
              g_with_tests =
                Option.value ~default:config.with_tests g.with_tests;
              g_enq_ms = now_ms ();
            })
  end

(* The stdio loop: one blocking read, then the grade lines that are
   ready now, at most [queue_cap], graded as one batch; the rest wait
   in the pipe.  Any other line met while draining ends the batch and
   is answered after it, so responses keep request order — a stats or
   metrics answer there sees queue depth 0 by construction (the live
   depths show up on the socket daemon, where stats overtakes queued
   work). *)
let serve_connection st r oc =
  let send lines =
    List.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      lines;
    flush oc
  in
  let rec drain batch n =
    if n >= st.config.queue_cap then (batch, None)
    else
      match poll_line r with
      | None -> (batch, None)
      | Some l -> (
          match decode st l with
          | None -> drain batch n
          | Some (Grade g) -> drain (g :: batch) (n + 1)
          | Some d -> (batch, Some d))
  in
  let rec handle = function
    | Grade g -> (
        let batch, barrier = drain [ g ] 1 in
        send (grade_batch st (List.rev batch));
        match barrier with Some d -> handle d | None -> loop ())
    | Reply line ->
        send [ line ];
        loop ()
    | Render render ->
        send [ render (view st ~queue_depth:0) ];
        loop ()
    | Shutdown line ->
        send [ line ];
        `Shutdown
  and loop () =
    match read_line r with
    | None -> `Eof
    | Some l -> ( match decode st l with Some d -> handle d | None -> loop ())
  in
  try loop () with Sys_error _ -> `Eof

let serve_fd config fd oc =
  let st = make_state config in
  let outcome = serve_connection st (reader_of_fd fd) oc in
  close_state st;
  outcome

let serve_stdio config =
  ignore (serve_fd config Unix.stdin stdout)

(* ------------------------------------------------------------------ *)
(* Concurrent socket daemon.

   One select(2) event loop multiplexes the listener and every open
   connection.  The domains that grade share it, leader/followers
   style: all loop state sits under one lock, any free domain runs a
   loop turn, and a domain that takes a miss grades it outside the lock
   and then answers it itself — cache insert, store append, events,
   answer cell and write-out — so no response waits for a hand-off
   between domains.

   - Per-connection response order is kept by a FIFO of slots: a slot
     is either a finished line (errors, control answers, queue-full
     sheds) or an answer cell that the request's answer fills.  Slots
     drain front-to-back, so a stats response never overtakes an
     earlier grade response on the same connection, while the cells of
     different connections fill in any order.
   - Admission control bounds memory: at most [queue_cap] grade
     requests are admitted and unanswered at once (queued, being
     graded, or waiting on the grading of the same key); a grade line
     past that is refused on the spot with a [rejected:"overloaded"]
     response.  Past [watermark] (when set, with [shed_fuel]), requests
     are still admitted but on the degraded fuel budget: the
     degradation ladder applied at the front door.  The fuel override
     is part of the cache key, so degraded results never impersonate
     full-budget ones.
   - A request that waited longer than its own deadline is shed when a
     domain resolves it, not graded with a stale budget: grading it
     anyway would poison the cache with a result keyed as full-budget
     but computed after the requester gave up.
   - Flow control: a connection whose output backlog exceeds
     {!out_highwater} stops being read (and so stops being admitted)
     until the client drains; its kernel-buffered input just waits.
   - SIGINT/SIGTERM set a stop flag (checked every loop turn; the
     finite select timeout bounds the latency): the listener closes,
     reads stop, admitted requests finish, output drains (with a grace
     period), the durable store is compacted + fsynced, the socket
     path unlinked.

   The domains: the serving domain (the one that called
   [serve_socket]) and at most [jobs - 1] helpers.

   - A free domain resolves the admitted requests in admission order
     and takes the oldest miss to grade; everything else (an error, a
     hit, an expired deadline, a key already being graded) it answers
     on the spot.
   - With nothing queued, the serving domain polls: it runs the select
     turn that accepts, reads, admits and writes.  A helper polls only
     while the serving domain is grading, and parks otherwise.  When
     the serving domain frees up while a helper polls, it takes polling
     back and polls itself.  The helper, still in its select, wakes on
     the same input (or after [poll_s]) and leaves the events to it.
     Nothing wakes it sooner: a pipe write would, but a pipe wakes its
     reader with a "sync" hint that lets Linux queue the helper on the
     writer's CPU (see park_stubs.c), and the next wake-up then held
     the serving domain off its CPU (1.6 ms at p99 on fresh-static).
   - A domain that takes a miss while no domain polls wakes one parked
     helper, which takes the next queued request or polls.
   - Helpers grow on demand.  A domain that finishes a miss while no
     domain polls looks for waiting work (a queued request, or a
     connection with input) before it writes its own answer; if there
     is some and fewer than [jobs] domains exist, it spawns a helper.
     A client that sends one request at a time therefore keeps one
     domain.
   - Every domain joins every stop-the-world minor collection, so a
     helper that stays parked through [retire_after] of them retires.
     The polling domain, which wakes at least every [poll_s], counts. *)

let out_highwater = 4 * 1024 * 1024
let drain_grace_s = 5.0
let poll_s = 0.2
let retire_after = 16

(* A queued grade's answer cell: empty until its answer fills it. *)
type cell = { w_req : grade_req; w_conn : conn; mutable w_line : string option }

and slot = Done of string | Wait of cell

and conn = {
  c_fd : Unix.file_descr;
  c_rd : reader;
  c_slots : slot Queue.t;
  c_out : string Queue.t;  (* response bytes not yet written *)
  mutable c_off : int;  (* written prefix of the head string *)
  mutable c_out_len : int;  (* total unwritten bytes *)
  mutable c_dead : bool;
}

type wake = Busy | Parked of int (* minor collections at parking *) | Woken | Retired

type helper = {
  h_id : int;  (* from 1; the serving domain is 0 *)
  h_wake : Condition.t;
  mutable h_state : wake;
  mutable h_domain : unit Domain.t option;
  mutable h_gone : bool;  (* its domain has left the loop *)
}

type loop = {
  st : state;
  sock : Unix.file_descr;
  stop : bool Atomic.t;
  lock : Mutex.t;  (* over everything below, and [st] *)
  pending : cell Queue.t;  (* admitted, not yet resolved *)
  ready : (cell * miss) Queue.t;  (* resolved misses no domain has taken *)
  inflight : (string, cell list ref) Hashtbl.t;
      (* key being graded -> the requests waiting on it, latest first *)
  mutable depth : int;  (* grade requests admitted and not yet answered *)
  mutable conns : conn list;
  mutable drain_deadline : float;
  mutable poller : int;  (* the polling domain's id; -1 when none polls *)
  mutable serving_busy : bool;
  mutable domains : int;  (* the serving domain and the helpers in the loop *)
  mutable helpers : helper list;  (* spawned, not yet joined *)
  mutable parked : helper list;  (* most recently parked first *)
  mutable next_id : int;
  mutable closing : bool;
  mutable fault : exn option;  (* escaped a helper; the serving domain re-raises it *)
}

let push_out c line =
  Queue.push (line ^ "\n") c.c_out;
  c.c_out_len <- c.c_out_len + String.length line + 1

(* Move every leading answered slot onto the output queue.  The write
   event marks a queued request's hand-off to the connection's output
   buffer — the end of the server-side lifecycle (the remaining latency
   is the socket and the client's reader). *)
let promote st c =
  let rec go () =
    match Queue.peek_opt c.c_slots with
    | Some (Done line) ->
        ignore (Queue.pop c.c_slots);
        push_out c line;
        go ()
    | Some (Wait { w_req; w_line = Some line; _ }) ->
        ignore (Queue.pop c.c_slots);
        emit st ~rid:w_req.g_rid "write"
          [ ("bytes", Events.I (String.length line + 1)) ];
        push_out c line;
        go ()
    | Some (Wait { w_line = None; _ }) | None -> ()
  in
  go ()

let rec write_conn c =
  match Queue.peek_opt c.c_out with
  | None -> ()
  | Some head -> (
      let len = String.length head - c.c_off in
      match Sysx.write c.c_fd (Bytes.unsafe_of_string head) c.c_off len with
      | `Wrote n ->
          c.c_out_len <- c.c_out_len - n;
          if n = len then begin
            ignore (Queue.pop c.c_out);
            c.c_off <- 0;
            write_conn c
          end
          else c.c_off <- c.c_off + n
      | `Again -> ()
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
          c.c_dead <- true)

(* Refuse a grade request, on arrival or when taken: counted as shed
   and, under an SLO, as bad.  [reason] replaces the refusal's default
   "queue full" wording. *)
let shed st r ?reason attrs =
  Metrics.record_shed st.metrics;
  if st.config.slo_ms <> None then Metrics.record_slo st.metrics ~ok:false;
  emit st ~rid:r.g_rid "shed" attrs;
  Proto.overloaded_response ?id:r.g_id ?rid:r.g_rid ?reason ()

(* Run [f] without the lock; it is held again when [f] returns or
   raises, so every loop function runs with it held. *)
let unlocked lp f =
  Mutex.unlock lp.lock;
  Fun.protect ~finally:(fun () -> Mutex.lock lp.lock) f

(* A connection whose client hung up and that owes and awaits nothing. *)
let finished c = c.c_rd.eof && Queue.is_empty c.c_slots && c.c_out_len = 0

let close_conns lp cs =
  List.iter (fun c -> try Unix.close c.c_fd with _ -> ()) cs;
  lp.conns <- List.filter (fun c -> not (List.memq c cs)) lp.conns

(* Fill a cell: its request leaves the admission count, and its
   connection's leading answers go out now, from the domain that
   answered it.  A client that half-closed its end waits for ours to
   close, so a connection finished by this answer closes now, not at
   the next poll turn.  A connection that failed a write (and may be
   closed already) takes nothing more. *)
let settle lp w line =
  w.w_line <- Some line;
  lp.depth <- lp.depth - 1;
  let c = w.w_conn in
  if not c.c_dead then begin
    promote lp.st c;
    write_conn c;
    if finished c then close_conns lp [ c ]
  end

let admit lp c line =
  let st = lp.st in
  match decode st line with
  | None -> ()
  | Some d -> (
      let depth = lp.depth in
      let push slot = Queue.push slot c.c_slots in
      match d with
      | Reply line -> push (Done line)
      | Render render ->
          push
            (Done
               (render
                  (view st ~conns:(List.length lp.conns) ~queue_depth:depth)))
      | Shutdown line ->
          push (Done line);
          Atomic.set lp.stop true
      | Grade req when depth >= st.config.queue_cap ->
          (* Hard shed: answer now, never queue, never grade. *)
          push
            (Done
               (shed st req
                  [ ("reason", Events.S "queue full"); ("depth", Events.I depth) ]))
      | Grade req ->
          let req =
            match (st.config.watermark, st.config.shed_fuel) with
            | Some w, Some sf when depth >= w ->
                (* Degraded admission: still served, on the shed
                   budget.  The clamped fuel is part of the cache key,
                   so this can't poison full-budget entries. *)
                Metrics.record_degraded_admission st.metrics;
                let clamped =
                  match req.g_fuel with Some f -> min f sf | None -> sf
                in
                emit st ~rid:req.g_rid "degrade"
                  [ ("fuel", Events.I clamped); ("depth", Events.I depth) ];
                { req with g_fuel = Some clamped }
            | _ -> req
          in
          let cell = { w_req = req; w_conn = c; w_line = None } in
          Queue.push cell lp.pending;
          lp.depth <- depth + 1;
          Metrics.observe_queue_depth st.metrics lp.depth;
          push (Wait cell))

let read_conn lp c =
  while fill c.c_rd do
    ()
  done;
  let rec lines () =
    match take_buffered_line c.c_rd with
    | Some l ->
        admit lp c l;
        lines ()
    | None -> ()
  in
  lines ()

let rec accept_all lp =
  match Sysx.accept lp.sock with
  | `Conn (fd, _) ->
      Unix.set_nonblock fd;
      lp.conns <-
        {
          c_fd = fd;
          c_rd = reader_of_fd fd;
          c_slots = Queue.create ();
          c_out = Queue.create ();
          c_off = 0;
          c_out_len = 0;
          c_dead = false;
        }
        :: lp.conns;
      accept_all lp
  | `Again -> ()

(* Resolve every admitted request against the cache, in admission
   order, before any of them is graded — as the stdio loop's round does
   — then hand out the oldest miss.  Everything else is answered on the
   spot: a request whose deadline passed while it was queued is shed,
   an error or a hit answered, and a request whose key is already
   being graded (or waits to be) waits on that miss. *)
let take lp =
  let st = lp.st in
  while not (Queue.is_empty lp.pending) do
    let w = Queue.pop lp.pending in
    let r = w.w_req in
    let waited = now_ms () -. r.g_enq_ms in
    match r.g_deadline with
    | Some d when not (waited /. 1000.0 < d) ->
        let reason = "deadline exceeded while queued" in
        settle lp w
          (shed st r ~reason
             [ ("reason", Events.S reason); ("queue_ms", Events.F waited) ])
    | _ -> (
        match resolve st r with
        | Err msg -> settle lp w (answer_error st r msg)
        | Hit (e, ms) -> settle lp w (answer_hit st r e ~ms)
        | Fresh m -> (
            match Hashtbl.find_opt lp.inflight m.m_key with
            | Some dups -> dups := w :: !dups
            | None ->
                Hashtbl.add lp.inflight m.m_key (ref []);
                Queue.push (w, sampled st m) lp.ready))
  done;
  Queue.take_opt lp.ready

(* The connections a poll reads: none once stopping, and none whose
   output backlog is past the high-water mark. *)
let readable lp =
  if Atomic.get lp.stop then []
  else
    List.filter_map
      (fun c ->
        if (not c.c_rd.eof) && c.c_out_len < out_highwater then Some c.c_fd
        else None)
      lp.conns

(* Work that no domain is on: a queued request, or input nobody read. *)
let waiting lp =
  (not (Queue.is_empty lp.pending && Queue.is_empty lp.ready))
  ||
  match readable lp with
  | [] -> false
  | fds -> (
      match Sysx.select fds [] [] 0.0 with ready, _, _ -> ready <> [])

let collections () = (Gc.quick_stat ()).Gc.minor_collections

let retire_idle lp =
  if lp.parked <> [] then begin
    let gcs = collections () in
    let stale, fresh =
      List.partition
        (fun h ->
          match h.h_state with
          | Parked since -> gcs - since >= retire_after
          | Busy | Woken | Retired -> false)
        lp.parked
    in
    lp.parked <- fresh;
    List.iter
      (fun h ->
        h.h_state <- Retired;
        Condition.signal h.h_wake)
      stale
  end

(* One select turn by domain [me]: accept, read and admit, write, flush
   the event log, reap.  A helper whose polling the serving domain took
   over meanwhile leaves the events to it. *)
let poll lp ~me =
  let st = lp.st in
  lp.poller <- me;
  if Atomic.get lp.stop && lp.drain_deadline = infinity then
    lp.drain_deadline <- now_ms () +. (drain_grace_s *. 1000.0);
  retire_idle lp;
  let rds =
    (if Atomic.get lp.stop then [] else [ lp.sock ]) @ readable lp
  in
  let wrs =
    List.filter_map
      (fun c -> if c.c_out_len > 0 then Some c.c_fd else None)
      lp.conns
  in
  let gone, live = List.partition (fun h -> h.h_gone) lp.helpers in
  lp.helpers <- live;
  let rready, wready =
    unlocked lp (fun () ->
        List.iter (fun h -> Option.iter Domain.join h.h_domain) gone;
        (* A descriptor can be closed between a displaced helper's
           look at the connections and its select. *)
        match Sysx.select rds wrs [] poll_s with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], []))
  in
  if lp.poller = me && not lp.closing then begin
    lp.poller <- -1;
    let stop = Atomic.get lp.stop in
    if (not stop) && List.mem lp.sock rready then accept_all lp;
    (* Answers go out as soon as they exist: the ones admission gives
       (control answers, errors, sheds) right after the read, a cell's
       when it is filled.  What is left waits on a slow reader, so it
       is written again once select says it can go, or at the stop. *)
    if not stop then
      List.iter
        (fun c ->
          if List.mem c.c_fd rready then begin
            read_conn lp c;
            promote st c;
            write_conn c
          end)
        lp.conns;
    List.iter
      (fun c ->
        if c.c_out_len > 0 && (List.mem c.c_fd wready || stop) then
          write_conn c)
      lp.conns;
    (* Admissions, sheds and write-outs of this turn reach disk before
       the next select sleep. *)
    Option.iter Events.flush st.events;
    (* Reap: write-errored connections, and finished ones. *)
    close_conns lp (List.filter (fun c -> c.c_dead || finished c) lp.conns)
  end

(* Grade a taken miss outside the lock, then answer it and every
   request that waited on its key. *)
let rec grade lp ~me (w, m) =
  let st = lp.st in
  let woken =
    match lp.parked with
    | h :: rest when lp.poller < 0 ->
        lp.parked <- rest;
        h.h_state <- Woken;
        Some h
    | _ -> None
  in
  if me = 0 then lp.serving_busy <- true;
  let result =
    unlocked lp (fun () ->
        Option.iter (fun h -> Condition.signal h.h_wake) woken;
        grade_guarded st.config m)
  in
  if me = 0 then lp.serving_busy <- false;
  let dups = Hashtbl.find lp.inflight m.m_key in
  Hashtbl.remove lp.inflight m.m_key;
  (* Looked at before this answer goes out: a client that sends one
     request at a time has sent nothing yet. *)
  let grow = lp.poller < 0 && lp.domains < st.config.jobs && waiting lp in
  settle lp w (answer_miss st m result);
  List.iter (fun d -> settle lp d (answer_dup st d.w_req result)) (List.rev !dups);
  Option.iter Events.flush st.events;
  if grow then spawn lp

(* The runtime caps live domains (128 in OCaml 5.1): a refused spawn
   leaves the loop with the domains it has. *)
and spawn lp =
  let h =
    {
      h_id = lp.next_id;
      h_wake = Condition.create ();
      h_state = Busy;
      h_domain = None;
      h_gone = false;
    }
  in
  lp.next_id <- lp.next_id + 1;
  match Domain.spawn (fun () -> helper lp h) with
  | d ->
      h.h_domain <- Some d;
      lp.domains <- lp.domains + 1;
      lp.helpers <- h :: lp.helpers
  | exception Failure _ -> ()

and helper lp h =
  Mutex.lock lp.lock;
  (try helper_turns lp h
   with e -> if lp.fault = None then lp.fault <- Some e);
  lp.domains <- lp.domains - 1;
  h.h_gone <- true;
  Mutex.unlock lp.lock

and helper_turns lp h =
  if not lp.closing then
    match take lp with
    | Some job ->
        grade lp ~me:h.h_id job;
        helper_turns lp h
    | None ->
        if lp.poller < 0 && lp.serving_busy then begin
          poll lp ~me:h.h_id;
          helper_turns lp h
        end
        else if park lp h then helper_turns lp h

(* Wait to be woken; false when told to retire. *)
and park lp h =
  h.h_state <- Parked (collections ());
  lp.parked <- h :: lp.parked;
  while match h.h_state with Parked _ -> true | Busy | Woken | Retired -> false do
    Condition.wait h.h_wake lp.lock
  done;
  let woken = h.h_state = Woken in
  h.h_state <- Busy;
  woken

let drained lp =
  lp.depth = 0
  && List.for_all
       (fun c -> c.c_out_len = 0 && Queue.is_empty c.c_slots)
       lp.conns

let rec serve lp =
  Option.iter raise lp.fault;
  match take lp with
  | Some job ->
      grade lp ~me:0 job;
      serve lp
  | None ->
      poll lp ~me:0;
      if not (Atomic.get lp.stop && (drained lp || now_ms () > lp.drain_deadline))
      then serve lp

(* Called with the lock held; returns without it, once every helper
   has left the loop (one in select leaves within [poll_s]). *)
let close_loop lp =
  lp.closing <- true;
  List.iter
    (fun h ->
      h.h_state <- Retired;
      Condition.signal h.h_wake)
    lp.parked;
  lp.parked <- [];
  let hs = lp.helpers in
  lp.helpers <- [];
  Mutex.unlock lp.lock;
  List.iter (fun h -> Option.iter Domain.join h.h_domain) hs

(* A path another daemon still serves is refused; one whose daemon is
   gone (a refused connect) is a stale file, replaced. *)
let claim path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect ~finally:(fun () -> Unix.close probe) @@ fun () ->
      Unix.set_nonblock probe;
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINPROGRESS), _, _) ->
          true
      | exception Unix.Unix_error _ -> false
    in
    if live then
      failwith
        (Printf.sprintf "socket %S is served by another jfeed serve" path);
    Sys.remove path
  end

let inode path =
  match Unix.lstat path with
  | s -> Some (s.Unix.st_dev, s.Unix.st_ino)
  | exception Unix.Unix_error _ -> None

let serve_socket config path =
  (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | () -> ()
  | exception _ -> ());
  let stop = Atomic.make false in
  let install s =
    try Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true))
    with _ -> ()
  in
  install Sys.sigint;
  install Sys.sigterm;
  (* One state for the daemon's lifetime: the cache and the stats span
     connections, which is the whole point of a persistent service.
     Built before the socket is bound, so a refused start (a locked
     cache directory, an event-log path that is not a directory) leaves
     no socket file behind. *)
  let st = make_state config in
  Fun.protect ~finally:(fun () -> close_state st) @@ fun () ->
  claim path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock sock;
  let lp =
    {
      st;
      sock;
      stop;
      lock = Mutex.create ();
      pending = Queue.create ();
      ready = Queue.create ();
      inflight = Hashtbl.create 16;
      depth = 0;
      conns = [];
      drain_deadline = infinity;
      poller = -1;
      serving_busy = false;
      domains = 1;
      helpers = [];
      parked = [];
      next_id = 1;
      closing = false;
      fault = None;
    }
  in
  (* The socket is bound under a temporary name beside [path] and renamed
     into place once it listens, so a client that sees [path] can
     connect.  On the way out [path] is removed only while it is still
     this daemon's socket. *)
  let tmp = Printf.sprintf "%s.%d" path (Unix.getpid ()) in
  let bound = ref None in
  let cleanup () =
    List.iter (fun c -> try Unix.close c.c_fd with _ -> ()) lp.conns;
    (try Unix.close sock with _ -> ());
    (try Sys.remove tmp with _ -> ());
    if !bound <> None && inode path = !bound then
      try Sys.remove path with _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX tmp);
  Unix.listen sock config.backlog;
  Unix.rename tmp path;
  bound := inode path;
  Mutex.lock lp.lock;
  Fun.protect ~finally:(fun () -> close_loop lp) (fun () -> serve lp)
