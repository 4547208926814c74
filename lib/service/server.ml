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
     reusable scratch buffer, allocated once per domain for its
     lifetime (a pool helper's spans rounds until it retires) and
     written by that domain alone; anything worth keeping is serialized below, before
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
   the lines) and the socket event loop (which fills each request's
   answer cell). *)
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
  (* The one way out for an answered grade, hit, miss or duplicate:
     counters, its cache events, the SLO verdict, the respond event and
     the response line.  Total service time runs from admission, so
     queue wait counts against the objective exactly as the client
     experienced it. *)
  let reply r e ~cached ~ms events =
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
            reply r e ~cached:true ~ms
              [ ("cache_hit", [ ("ms", Events.F ms) ]) ]
        | Miss i ->
            let e, ms, slow, spans = results.(i) in
            let key = miss_arr.(i).m_key in
            Shards.add st.cache key e;
            (* Fresh results — and only fresh results — reach the durable
               log; replayed or duplicate hits are already on disk. *)
            Option.iter
              (fun s -> Store.append s ~key ~value:(encode_entry e))
              st.store;
            Metrics.record_slow st.metrics slow;
            let trace =
              match spans with
              | Some spans ->
                  Metrics.record_trace_retained st.metrics;
                  [ ("trace", [ ("spans", Events.R spans) ]) ]
              | None -> []
            in
            reply r e ~cached:false ~ms
              (("cache_miss", [])
              :: ( "grade_done",
                   [
                     ("ms", Events.F ms);
                     ("outcome", Events.S e.outcome_class);
                   ] )
              :: trace)
        | Dup i ->
            (* Served from an in-flight computation of this very batch:
               a hit in every observable way, it just wasn't stored yet
               when the lookup ran.  The requester still waited for that
               grading, so its service time — not zero — is what lands
               in the latency reservoir. *)
            let e, ms, _, _ = results.(i) in
            reply r e ~cached:true ~ms
              [ ("cache_hit", [ ("ms", Events.F ms); ("dup", Events.I 1) ]) ])
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
   connection; grading still runs in bounded synchronous rounds through
   {!grade_batch} (the pool is the parallelism — the loop's job is to
   keep one slow or bursty client from wedging the rest):

   - Per-connection response order is kept by a FIFO of slots: a slot
     is either a finished line (errors, control answers, queue-full
     sheds) or an answer cell that its grading round fills.  Slots
     drain front-to-back, so a stats response never overtakes an
     earlier grade response on the same connection, while grading
     rounds batch cells across connections freely.
   - Admission control bounds memory: at most [queue_cap] cells are
     pending at once; a grade line past that is refused on the spot
     with a [rejected:"overloaded"] response.  Past [watermark] (when
     set, with [shed_fuel]), requests are still admitted but on the
     degraded fuel budget — the PR-1 ladder applied at the front door.
     The fuel override is part of the cache key, so degraded results
     never impersonate full-budget ones.
   - A request that waited longer than its own deadline is shed when
     its round starts, not graded with a stale budget: grading it
     anyway would poison the cache with a result keyed as full-budget
     but computed after the requester gave up.
   - Flow control: a connection whose output backlog exceeds
     {!out_highwater} stops being read (and so stops being admitted)
     until the client drains; its kernel-buffered input just waits.
   - SIGINT/SIGTERM set a stop flag (checked every loop turn; the
     finite select timeout bounds the latency): the listener closes,
     reads stop, admitted requests finish, output drains (with a grace
     period), the durable store is compacted + fsynced, the socket
     path unlinked. *)

let out_highwater = 4 * 1024 * 1024
let drain_grace_s = 5.0

(* A queued grade's answer cell: empty until its round fills it. *)
type cell = { w_req : grade_req; mutable w_line : string option }

type slot = Done of string | Wait of cell

type conn = {
  c_fd : Unix.file_descr;
  c_rd : reader;
  c_slots : slot Queue.t;
  c_out : string Queue.t;  (* response bytes not yet written *)
  mutable c_off : int;  (* written prefix of the head string *)
  mutable c_out_len : int;  (* total unwritten bytes *)
  mutable c_dead : bool;
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
    | Some (Wait { w_req; w_line = Some line }) ->
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

(* Refuse a grade request, on arrival or at its round: counted as shed
   and, under an SLO, as bad.  [reason] replaces the refusal's default
   "queue full" wording. *)
let shed st r ?reason attrs =
  Metrics.record_shed st.metrics;
  if st.config.slo_ms <> None then Metrics.record_slo st.metrics ~ok:false;
  emit st ~rid:r.g_rid "shed" attrs;
  Proto.overloaded_response ?id:r.g_id ?rid:r.g_rid ?reason ()

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
  (* One state for the daemon's lifetime: the cache and the stats span
     connections, which is the whole point of a persistent service.
     Built before the socket is bound, so a refused start (a locked
     cache directory, an event-log path that is not a directory) leaves
     no socket file behind. *)
  let st = make_state config in
  Fun.protect ~finally:(fun () -> close_state st) @@ fun () ->
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock sock;
  let conns = ref [] in
  (* The socket is bound under a temporary name beside [path] and renamed
     into place once it listens, so a client that sees [path] can
     connect. *)
  let tmp = Printf.sprintf "%s.%d" path (Unix.getpid ()) in
  let cleanup () =
    List.iter (fun c -> try Unix.close c.c_fd with _ -> ()) !conns;
    (try Unix.close sock with _ -> ());
    List.iter (fun p -> try Sys.remove p with _ -> ()) [ tmp; path ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX tmp);
  Unix.listen sock config.backlog;
  Unix.rename tmp path;
  let pending : cell Queue.t = Queue.create () in
  let handle_line c line =
    match decode st line with
    | None -> ()
    | Some d -> (
        let depth = Queue.length pending in
        let push slot = Queue.push slot c.c_slots in
        match d with
        | Reply line -> push (Done line)
        | Render render ->
            push
              (Done
                 (render
                    (view st ~conns:(List.length !conns) ~queue_depth:depth)))
        | Shutdown line ->
            push (Done line);
            stop := true
        | Grade req when depth >= st.config.queue_cap ->
            (* Hard shed: answer now, never queue, never grade. *)
            push
              (Done
                 (shed st req
                    [
                      ("reason", Events.S "queue full");
                      ("depth", Events.I depth);
                    ]))
        | Grade req ->
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
                    [ ("fuel", Events.I clamped); ("depth", Events.I depth) ];
                  { req with g_fuel = Some clamped }
              | _ -> req
            in
            let cell = { w_req = req; w_line = None } in
            Queue.push cell pending;
            Metrics.observe_queue_depth st.metrics (Queue.length pending);
            push (Wait cell))
  in
  let read_conn c =
    while fill c.c_rd do
      ()
    done;
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
      let cells = List.of_seq (Queue.to_seq pending) in
      Queue.clear pending;
      let now = now_ms () in
      let live, expired =
        List.partition
          (fun w ->
            match w.w_req.g_deadline with
            | Some d -> (now -. w.w_req.g_enq_ms) /. 1000.0 < d
            | None -> true)
          cells
      in
      (* Queue-expired requests are shed, not graded: the requester's
         deadline already passed, and grading on the leftover budget
         would cache a result keyed as if it ran on the full one. *)
      let reason = "deadline exceeded while queued" in
      List.iter
        (fun w ->
          w.w_line <-
            Some
              (shed st w.w_req ~reason
                 [
                   ("reason", Events.S reason);
                   ("queue_ms", Events.F (now -. w.w_req.g_enq_ms));
                 ]))
        expired;
      List.iter2
        (fun w line -> w.w_line <- Some line)
        live
        (grade_batch st (List.map (fun w -> w.w_req) live))
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
        promote st c;
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
  loop ()
