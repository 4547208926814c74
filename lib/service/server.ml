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

(* One [read(2)]; false when the descriptor hit end of input.  Blocking
   descriptors only (the stdio path); [`Again] can't happen there, but
   if it ever did the select-wait turns it into a retry, not a spin. *)
let rec fill r =
  compact r;
  match Sysx.read r.fd r.buf (r.start + r.len) (Bytes.length r.buf - r.start - r.len) with
  | `Read 0 ->
      r.eof <- true;
      false
  | `Read n ->
      r.len <- r.len + n;
      true
  | `Again ->
      ignore (Sysx.select [ r.fd ] [] [] (-1.0));
      fill r

(* The event loop's fill: one non-blocking read, never waits. *)
let fill_nb r =
  compact r;
  match Sysx.read r.fd r.buf (r.start + r.len) (Bytes.length r.buf - r.start - r.len) with
  | `Read 0 ->
      r.eof <- true;
      `Eof
  | `Read n ->
      r.len <- r.len + n;
      `Data
  | `Again -> `Again

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

let rec read_line r =
  match take_buffered_line r with
  | Some line -> Some line
  | None -> if r.eof then None else if fill r then read_line r else read_line r

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

(* Per-entry resolution after the cache pass. *)
type resolved =
  | Err of string
  | Hit of entry * float  (* lookup ms *)
  | Miss of int  (* index into the miss array *)
  | Dup of int  (* same key as an earlier miss of this batch *)

type miss = {
  m_bundle : Bundles.t;
  m_key : string;
  m_req : grade_req;
  m_sample : bool;  (* 1-in-N trace retention, decided at resolution *)
}

(* Monotonic, nanosecond-backed: wall-clock steps (NTP, suspend) can
   no longer produce negative or wildly wrong latencies, and the
   sub-millisecond service times the percentiles now render with three
   significant digits are actually measured, not rounded away. *)
let now_ms () = Int64.to_float (Trace.now_ns ()) /. 1e6

(* Emit one lifecycle event iff the daemon has an event log and the
   request a correlation id.  All call sites run single-threaded (the
   resolution/response phases and the event loop), matching the ring's
   one-writer contract. *)
let emit st ~rid ev attrs =
  match (st.events, rid) with
  | Some e, Some rid -> Events.emit e ~rid ~ev attrs
  | _ -> ()

let grade_miss cfg (m : miss) =
  let r = m.m_req in
  let t0 = now_ms () in
  (* Every miss runs traced so the slowlog can show where a slow
     request spent its time.  The tracer is this worker domain's
     reusable scratch buffer, allocated once per domain for the
     daemon's lifetime (pool helpers persist) and written by that
     domain alone; anything worth keeping is serialized below, before
     the domain's next miss recycles it. *)
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
     1-in-N sampled.  Serialized here, in the worker, because the
     scratch buffer is recycled by this domain's next miss. *)
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

(* Grade one batch against the cache + pool; one response line per
   request, in request order.  Shared by the stdio loop (which prints
   the lines) and the socket event loop (which queues them onto each
   connection's output buffer). *)
let grade_batch st (batch : grade_req list) : string list =
  Metrics.observe_queue_depth st.metrics (List.length batch);
  let misses = ref [] in
  let n_misses = ref 0 in
  let inflight = Hashtbl.create 16 in
  let resolved =
    List.map
      (fun r ->
        match Bundles.find r.g_assignment with
        | None ->
            ( r,
              Err
                (Printf.sprintf
                   "unknown assignment %S; try: jfeed assignments"
                   r.g_assignment) )
        | Some b ->
            let t0 = now_ms () in
            let key, _fp =
              Normalize.cache_key ~assignment:r.g_assignment ~fuel:r.g_fuel
                ~deadline_s:r.g_deadline ~with_tests:r.g_with_tests
                r.g_source
            in
            (match Shards.find st.cache key with
            | Some e -> (r, Hit (e, now_ms () -. t0))
            | None -> (
                match Hashtbl.find_opt inflight key with
                | Some i -> (r, Dup i)
                | None ->
                    let i = !n_misses in
                    Hashtbl.add inflight key i;
                    incr n_misses;
                    (* The 1-in-N sampling decision is made here, in
                       the single-threaded resolution phase, so it is
                       deterministic in arrival order whatever the
                       pool width. *)
                    let m_sample =
                      match st.config.trace_sample with
                      | Some n when r.g_rid <> None ->
                          st.seq_ctr <- st.seq_ctr + 1;
                          st.seq_ctr mod n = 0
                      | _ -> false
                    in
                    misses :=
                      { m_bundle = b; m_key = key; m_req = r; m_sample }
                      :: !misses;
                    (r, Miss i))))
      batch
  in
  let miss_arr = Array.of_list (List.rev !misses) in
  (* The parallel part: only genuine cache misses reach the pool, each
     with its own fresh budget (jobs-invariant, like the batch CLI). *)
  let results =
    Pool.map ~jobs:st.config.jobs ~f:(grade_miss st.config) miss_arr
  in
  let slo_on = st.config.slo_ms <> None in
  (* SLO verdict + respond event for one answered grade request; total
     service time runs from admission, so queue wait counts against
     the objective exactly as the client experienced it. *)
  let finish r ~cached ~outcome ~grade_ms =
    let total = now_ms () -. r.g_enq_ms in
    if slo_on then
      Metrics.record_slo st.metrics
        ~ok:(match st.config.slo_ms with Some s -> total <= s | None -> true);
    emit st ~rid:r.g_rid "respond"
      [
        ("outcome", Events.S outcome);
        ("cached", Events.I (if cached then 1 else 0));
        ("queue_ms", Events.F (total -. grade_ms));
        ("total_ms", Events.F total);
      ]
  in
  let lines =
    List.map
      (fun (r, res) ->
        match res with
        | Err msg ->
            Metrics.record_error st.metrics;
            emit st ~rid:r.g_rid "respond"
              [ ("outcome", Events.S "error") ];
            Proto.error_response ?id:r.g_id ?rid:r.g_rid msg
        | Hit (e, ms) ->
            Metrics.record_grade st.metrics ~outcome:e.outcome_class
              ~hit:true ~ms;
            Metrics.record_diags st.metrics e.diag_counts;
            emit st ~rid:r.g_rid "cache_hit" [ ("ms", Events.F ms) ];
            finish r ~cached:true ~outcome:e.outcome_class ~grade_ms:ms;
            Proto.grade_response ?id:r.g_id ?rid:r.g_rid ~cached:true
              ~fuel:e.fuel_spent e.result_json
        | Miss i ->
            let entry, ms, slow, spans = results.(i) in
            Shards.add st.cache miss_arr.(i).m_key entry;
            (* Fresh results — and only fresh results — reach the durable
               log; replayed or duplicate hits are already on disk. *)
            Option.iter
              (fun s ->
                Store.append s ~key:miss_arr.(i).m_key
                  ~value:(encode_entry entry))
              st.store;
            Metrics.record_grade st.metrics ~outcome:entry.outcome_class
              ~hit:false ~ms;
            Metrics.record_slow st.metrics slow;
            Metrics.record_diags st.metrics entry.diag_counts;
            emit st ~rid:r.g_rid "cache_miss" [];
            emit st ~rid:r.g_rid "grade_done"
              [
                ("ms", Events.F ms);
                ("outcome", Events.S entry.outcome_class);
              ];
            Option.iter
              (fun spans ->
                Metrics.record_trace_retained st.metrics;
                emit st ~rid:r.g_rid "trace" [ ("spans", Events.R spans) ])
              spans;
            finish r ~cached:false ~outcome:entry.outcome_class
              ~grade_ms:ms;
            Proto.grade_response ?id:r.g_id ?rid:r.g_rid ~cached:false
              ~fuel:entry.fuel_spent entry.result_json
        | Dup i ->
            (* Served from an in-flight computation of this very batch:
               a hit in every observable way, it just wasn't stored yet
               when the lookup ran.  The requester still waited for that
               grading, so its service time — not zero — is what lands
               in the latency reservoir. *)
            let entry, ms, _, _ = results.(i) in
            Metrics.record_grade st.metrics ~outcome:entry.outcome_class
              ~hit:true ~ms;
            Metrics.record_diags st.metrics entry.diag_counts;
            emit st ~rid:r.g_rid "cache_hit"
              [ ("ms", Events.F ms); ("dup", Events.I 1) ];
            finish r ~cached:true ~outcome:entry.outcome_class ~grade_ms:ms;
            Proto.grade_response ?id:r.g_id ?rid:r.g_rid ~cached:true
              ~fuel:entry.fuel_spent entry.result_json)
      resolved
  in
  Option.iter Events.flush st.events;
  lines

let process_batch st oc (batch : grade_req list) =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (grade_batch st batch);
  flush oc

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

(* Request fields override the server defaults; an absent field means
   "whatever the daemon was started with".  The correlation id is the
   client's when supplied, else minted here — at admission — when
   telemetry is on; either way it is echoed in the response and stamps
   every event and retained trace of this request's lifecycle. *)
let grade_req_of st ~id ~rid ~assignment ~source ~fuel ~deadline_s
    ~with_tests =
  let config = st.config in
  let g_rid =
    match rid with
    | Some _ -> rid
    | None ->
        if telemetry config then begin
          st.rid_ctr <- st.rid_ctr + 1;
          Some (Printf.sprintf "r%d-%d" st.rid_seed st.rid_ctr)
        end
        else None
  in
  emit st ~rid:g_rid "admit" [ ("assignment", Events.S assignment) ];
  {
    g_id = id;
    g_rid;
    g_assignment = assignment;
    g_source = source;
    g_fuel = (match fuel with Some _ -> fuel | None -> config.fuel);
    g_deadline =
      (match deadline_s with Some _ -> deadline_s | None -> config.deadline_s);
    g_with_tests = Option.value ~default:config.with_tests with_tests;
    g_enq_ms = now_ms ();
  }

let serve_connection st r oc =
  (* A non-grade line discovered while draining the queue is stashed and
     re-processed after the batch — responses stay in request order. *)
  let pending = ref None in
  let next_line () =
    match !pending with
    | Some l ->
        pending := None;
        Some l
    | None -> read_line r
  in
  let rec drain_into batch =
    if List.length batch >= st.config.queue_cap then List.rev batch
    else
      match poll_line r with
      | None -> List.rev batch
      | Some l when String.trim l = "" -> drain_into batch
      | Some l -> (
          match Proto.request_of_line l with
          | Ok (Proto.Grade g) ->
              Metrics.record_request st.metrics;
              let req =
                grade_req_of st ~id:g.id ~rid:g.rid
                  ~assignment:g.assignment ~source:g.source ~fuel:g.fuel
                  ~deadline_s:g.deadline_s ~with_tests:g.with_tests
              in
              drain_into (req :: batch)
          | _ ->
              (* stats / shutdown / error: a barrier — park the raw line *)
              pending := Some l;
              List.rev batch)
  in
  let rec loop () =
    match next_line () with
    | None -> `Eof
    | Some line when String.trim line = "" -> loop ()
    | Some line -> (
        Metrics.record_request st.metrics;
        match Proto.request_of_line line with
        | Error (id, msg) ->
            Metrics.record_error st.metrics;
            output_string oc (Proto.error_response ?id msg);
            output_char oc '\n';
            flush oc;
            loop ()
        | Ok (Proto.Stats { id }) ->
            Metrics.record_stats_req st.metrics;
            (* Stats is a barrier: every earlier grade was answered
               before this line is reached, so the truthful queue depth
               here is zero by construction — the live depths show up on
               the socket daemon, where stats overtakes queued work. *)
            output_string oc
              (Proto.stats_response ?id
                 (Metrics.stats st.metrics (view st ~queue_depth:0)));
            output_char oc '\n';
            flush oc;
            loop ()
        | Ok (Proto.Metrics { id = _ }) ->
            (* The one multi-line response: a Prometheus exposition
               block, "# EOF"-terminated (see Proto).  Counted as a
               stats-class request. *)
            Metrics.record_stats_req st.metrics;
            output_string oc
              (Metrics.exposition st.metrics (view st ~queue_depth:0));
            output_char oc '\n';
            flush oc;
            loop ()
        | Ok (Proto.Slowlog { id }) ->
            Metrics.record_stats_req st.metrics;
            output_string oc
              (Proto.slowlog_response ?id (Metrics.slowlog st.metrics));
            output_char oc '\n';
            flush oc;
            loop ()
        | Ok (Proto.Shutdown { id }) ->
            output_string oc (Proto.shutdown_response ?id ());
            output_char oc '\n';
            flush oc;
            `Shutdown
        | Ok (Proto.Grade g) ->
            let req =
              grade_req_of st ~id:g.id ~rid:g.rid ~assignment:g.assignment
                ~source:g.source ~fuel:g.fuel ~deadline_s:g.deadline_s
                ~with_tests:g.with_tests
            in
            let batch = drain_into [ req ] in
            process_batch st oc batch;
            loop ())
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
   connection; grading still runs in bounded synchronous rounds through
   {!grade_batch} (the pool is the parallelism — the loop's job is to
   keep one slow or bursty client from wedging the rest):

   - Per-connection response order is kept by a FIFO of slots: a slot
     is either a finished line (errors, stats, shed refusals) or a
     ticket awaiting its grading round.  Slots drain front-to-back, so
     a stats response never overtakes an earlier grade response on the
     same connection, while grading rounds batch tickets across
     connections freely.
   - Admission control bounds memory: at most [queue_cap] tickets are
     pending at once; a grade line past that is refused on the spot
     with a [rejected:"overloaded"] response.  Past [watermark] (when
     set, with [shed_fuel]), requests are still admitted but on the
     degraded fuel budget — the PR-1 ladder applied at the front door.
     The fuel override is part of the cache key, so degraded results
     never impersonate full-budget ones.
   - A ticket that waited longer than its own deadline is shed when its
     round starts, not graded with a stale budget: grading it anyway
     would poison the cache with a result keyed as full-budget but
     computed after the requester gave up.
   - Flow control: a connection whose output backlog exceeds
     {!out_highwater} stops being read (and so stops being admitted)
     until the client drains; its kernel-buffered input just waits.
   - SIGINT/SIGTERM set a stop flag (checked every loop turn; the
     finite select timeout bounds the latency): the listener closes,
     reads stop, admitted tickets finish, output drains (with a grace
     period), the durable store is compacted + fsynced, the socket
     path unlinked. *)

let out_highwater = 4 * 1024 * 1024
let drain_grace_s = 5.0

type slot = Done of string | Wait of int

type conn = {
  c_fd : Unix.file_descr;
  c_rd : reader;
  c_slots : slot Queue.t;
  c_out : string Queue.t;  (* response bytes not yet written *)
  mutable c_off : int;  (* written prefix of the head string *)
  mutable c_out_len : int;  (* total unwritten bytes *)
  mutable c_dead : bool;
}

type ticket = { t_req : grade_req; t_enq_ms : float }

(* A resolved ticket: the response line, plus the correlation id so
   the write-out event can be stamped when the line finally leaves. *)
type resolved_ticket = { r_line : string; r_rid : string option }

let push_out c line =
  Queue.push (line ^ "\n") c.c_out;
  c.c_out_len <- c.c_out_len + String.length line + 1

(* Move every leading resolved slot onto the output queue.  The write
   event marks the hand-off to the connection's output buffer — the
   end of the server-side lifecycle (the remaining latency is the
   socket and the client's reader). *)
let promote st tickets c =
  let rec go () =
    match Queue.peek_opt c.c_slots with
    | Some (Done line) ->
        ignore (Queue.pop c.c_slots);
        push_out c line;
        go ()
    | Some (Wait id) -> (
        match Hashtbl.find_opt tickets id with
        | Some rt ->
            ignore (Queue.pop c.c_slots);
            Hashtbl.remove tickets id;
            emit st ~rid:rt.r_rid "write"
              [ ("bytes", Events.I (String.length rt.r_line + 1)) ];
            push_out c rt.r_line;
            go ()
        | None -> ())
    | None -> ()
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

let serve_socket config path =
  (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | () -> ()
  | exception _ -> ());
  let stop = ref false in
  let install s =
    try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true))
    with _ -> ()
  in
  install Sys.sigint;
  install Sys.sigterm;
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock sock;
  let conns = ref [] in
  let cleanup () =
    List.iter (fun c -> try Unix.close c.c_fd with _ -> ()) !conns;
    (try Unix.close sock with _ -> ());
    try Sys.remove path with _ -> ()
  in
  (try
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock config.backlog
   with e ->
     cleanup ();
     raise e);
  (* One state for the daemon's lifetime: the cache and the stats span
     connections, which is the whole point of a persistent service. *)
  let st = make_state config in
  let pending : (int * ticket) Queue.t = Queue.create () in
  let tickets : (int, resolved_ticket) Hashtbl.t = Hashtbl.create 64 in
  let next_ticket = ref 0 in
  let handle_line c line =
    if String.trim line <> "" then begin
      Metrics.record_request st.metrics;
      let depth = Queue.length pending in
      match Proto.request_of_line line with
      | Error (id, msg) ->
          Metrics.record_error st.metrics;
          Queue.push (Done (Proto.error_response ?id msg)) c.c_slots
      | Ok (Proto.Stats { id }) ->
          Metrics.record_stats_req st.metrics;
          Queue.push
            (Done
               (Proto.stats_response ?id
                  (Metrics.stats st.metrics
                     (view st ~conns:(List.length !conns) ~queue_depth:depth))))
            c.c_slots
      | Ok (Proto.Metrics { id = _ }) ->
          Metrics.record_stats_req st.metrics;
          Queue.push
            (Done
               (Metrics.exposition st.metrics
                  (view st ~conns:(List.length !conns) ~queue_depth:depth)))
            c.c_slots
      | Ok (Proto.Slowlog { id }) ->
          Metrics.record_stats_req st.metrics;
          Queue.push
            (Done (Proto.slowlog_response ?id (Metrics.slowlog st.metrics)))
            c.c_slots
      | Ok (Proto.Shutdown { id }) ->
          Queue.push (Done (Proto.shutdown_response ?id ())) c.c_slots;
          stop := true
      | Ok (Proto.Grade g) ->
          let req =
            grade_req_of st ~id:g.id ~rid:g.rid ~assignment:g.assignment
              ~source:g.source ~fuel:g.fuel ~deadline_s:g.deadline_s
              ~with_tests:g.with_tests
          in
          if depth >= st.config.queue_cap then begin
            (* Hard shed: answer now, never queue, never grade. *)
            Metrics.record_shed st.metrics;
            if st.config.slo_ms <> None then
              Metrics.record_slo st.metrics ~ok:false;
            emit st ~rid:req.g_rid "shed"
              [ ("reason", Events.S "queue full"); ("depth", Events.I depth) ];
            Queue.push
              (Done (Proto.overloaded_response ?id:g.id ?rid:req.g_rid ()))
              c.c_slots
          end
          else begin
            let req =
              match (st.config.watermark, st.config.shed_fuel) with
              | Some w, Some sf when depth >= w ->
                  (* Degraded admission: still served, on the shed
                     budget.  The clamped fuel is part of the cache
                     key, so this can't poison full-budget entries. *)
                  Metrics.record_degraded_admission st.metrics;
                  let clamped =
                    match req.g_fuel with Some f -> min f sf | None -> sf
                  in
                  emit st ~rid:req.g_rid "degrade"
                    [
                      ("fuel", Events.I clamped);
                      ("depth", Events.I depth);
                    ];
                  { req with g_fuel = Some clamped }
              | _ -> req
            in
            let id = !next_ticket in
            incr next_ticket;
            Queue.push (id, { t_req = req; t_enq_ms = now_ms () }) pending;
            Metrics.observe_queue_depth st.metrics (Queue.length pending);
            Queue.push (Wait id) c.c_slots
          end
    end
  in
  let read_conn c =
    let rec drain () =
      match fill_nb c.c_rd with
      | `Data -> drain ()
      | `Again | `Eof -> ()
    in
    drain ();
    let rec lines () =
      match take_buffered_line c.c_rd with
      | Some l ->
          handle_line c l;
          lines ()
      | None -> ()
    in
    lines ()
  in
  let run_pending () =
    if not (Queue.is_empty pending) then begin
      let items = List.of_seq (Queue.to_seq pending) in
      Queue.clear pending;
      let now = now_ms () in
      let live, expired =
        List.partition
          (fun (_, t) ->
            match t.t_req.g_deadline with
            | Some d -> (now -. t.t_enq_ms) /. 1000.0 < d
            | None -> true)
          items
      in
      (* Queue-expired requests are shed, not graded: the requester's
         deadline already passed, and grading on the leftover budget
         would cache a result keyed as if it ran on the full one. *)
      List.iter
        (fun (id, t) ->
          Metrics.record_shed st.metrics;
          if st.config.slo_ms <> None then
            Metrics.record_slo st.metrics ~ok:false;
          emit st ~rid:t.t_req.g_rid "shed"
            [
              ("reason", Events.S "deadline exceeded while queued");
              ("queue_ms", Events.F (now -. t.t_enq_ms));
            ];
          Hashtbl.replace tickets id
            {
              r_line =
                Proto.overloaded_response ?id:t.t_req.g_id
                  ?rid:t.t_req.g_rid
                  ~reason:"deadline exceeded while queued" ();
              r_rid = t.t_req.g_rid;
            })
        expired;
      let lines = grade_batch st (List.map (fun (_, t) -> t.t_req) live) in
      List.iter2
        (fun (id, t) line ->
          Hashtbl.replace tickets id { r_line = line; r_rid = t.t_req.g_rid })
        live lines
    end
  in
  let drain_deadline = ref infinity in
  let rec loop () =
    if !stop && !drain_deadline = infinity then
      drain_deadline := now_ms () +. (drain_grace_s *. 1000.0);
    let rds =
      if !stop then []
      else
        sock
        :: List.filter_map
             (fun c ->
               if (not c.c_rd.eof) && c.c_out_len < out_highwater then
                 Some c.c_fd
               else None)
             !conns
    in
    let wrs =
      List.filter_map
        (fun c -> if c.c_out_len > 0 then Some c.c_fd else None)
        !conns
    in
    let rready, wready, _ = Sysx.select rds wrs [] 0.2 in
    if (not !stop) && List.mem sock rready then begin
      let rec accept_all () =
        match Sysx.accept sock with
        | `Conn (fd, _) ->
            Unix.set_nonblock fd;
            conns :=
              {
                c_fd = fd;
                c_rd = reader_of_fd fd;
                c_slots = Queue.create ();
                c_out = Queue.create ();
                c_off = 0;
                c_out_len = 0;
                c_dead = false;
              }
              :: !conns;
            accept_all ()
        | `Again -> ()
      in
      accept_all ()
    end;
    if not !stop then
      List.iter
        (fun c -> if List.mem c.c_fd rready then read_conn c)
        !conns;
    run_pending ();
    List.iter
      (fun c ->
        promote st tickets c;
        if c.c_out_len > 0 && (List.mem c.c_fd wready || !stop) then
          write_conn c)
      !conns;
    (* The loop turn is the event log's single writer: admissions,
       sheds and write-outs accumulated this turn reach disk before
       the next select sleep. *)
    Option.iter Events.flush st.events;
    (* Reap: write-errored connections, and cleanly finished ones (the
       client hung up and owes/awaits nothing). *)
    let dead, alive =
      List.partition
        (fun c ->
          c.c_dead
          || (c.c_rd.eof && Queue.is_empty c.c_slots && c.c_out_len = 0))
        !conns
    in
    List.iter (fun c -> try Unix.close c.c_fd with _ -> ()) dead;
    conns := alive;
    let drained =
      Queue.is_empty pending
      && List.for_all
           (fun c -> c.c_out_len = 0 && Queue.is_empty c.c_slots)
           !conns
    in
    if !stop && (drained || now_ms () > !drain_deadline) then ()
    else loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      cleanup ();
      close_state st)
    loop
