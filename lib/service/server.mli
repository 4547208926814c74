(** The persistent grading daemon ([jfeed serve]).

    Two serving loops share one request path.  Each request line goes
    through one decoder, which counts it and turns it into a grade
    request (defaults filled in, correlation id minted, admitted), an
    error reply, a shutdown reply, or a renderer for [stats], [metrics]
    or [slowlog] that the loop calls with its own view of the queue.
    Both loops answer a grade request through one resolve and reply
    path: resolve it against the content-addressed result cache
    ({!Normalize} keys into the sharded {!Shards} LRU; a request whose
    key is already being graded waits on that computation), grade a
    miss under one fresh per-request budget
    ({!Jfeed_robust.Pipeline.grade_submission}), and answer with one
    response line.  A malformed line costs one [error] response, never
    the daemon, and so does an exception escaping the pipeline.

    {b Stdio / single descriptor} ({!serve_fd}, {!serve_stdio}) — the
    blocking loop, drivable from cram tests and shell pipelines.  It
    reads one line (blocking); if it is a [grade], it drains further
    {e immediately available} grade lines into the batch (at most
    [queue_cap]; lines beyond that stay in the kernel pipe buffer —
    backpressure without an unbounded heap).  Any other line met while
    draining, not just [stats] and [shutdown], ends the batch: it is
    decoded and counted when read and answered after every earlier
    grade response, so a [stats] answer there reports queue depth 0.
    The batch's misses are graded on the pool, and the responses go
    out in request order.  This loop never sheds.

    {b Socket daemon} ({!serve_socket}) — a select(2) event loop
    serving many connections at once, run leader/followers style by
    the grading domains: the serving domain and up to [jobs - 1]
    helper domains share the loop state under one lock, any free
    domain runs a loop turn, and a domain that takes a miss grades it
    outside the lock and then answers it itself, so a miss is graded
    as soon as a domain is free and answered as soon as it is graded.
    Helpers are spawned only when work waits while every domain
    grades, and retire after 16 minor collections parked.  Each
    connection keeps a FIFO of slots: a finished line, or an answer
    cell that the request's answer fills.  Slots drain in order, so
    per-connection response order holds while the cells of different
    connections fill in any order; a slow reader only stalls itself
    (its output backlog trips flow control and its input waits in the
    kernel buffer).  Responses do not depend on [jobs].  Control
    requests answer when read, with the live queue depth: the grade
    requests admitted and not yet answered, whether queued, being
    graded or waiting on a duplicate's grading.  Admission control
    sheds load past [queue_cap] with an explicit
    [rejected:"overloaded"] line, optionally admitting on a degraded
    fuel budget between [watermark] and the cap, and sheds a request
    whose deadline passed while it was queued; SIGINT/SIGTERM drain
    in-flight work, flush the durable store and unlink the socket.

    With [cache_dir] set, the result cache is durable: every fresh
    grade is appended to a checksummed log ({!Store}) the moment it is
    computed, and a restart — even after [kill -9] — replays the log
    into a warm cache whose hits answer [cached:true], byte-identical.

    The KB is compiled in and every per-assignment structure is a
    static value, so a fresh daemon serves its first request without a
    warm-up phase. *)

type config = {
  cache_cap : int;  (** result-cache entries; [0] disables caching *)
  queue_cap : int;  (** max grade requests held in memory *)
  jobs : int;
      (** grading domains: the stdio loop's pool width for a batch of
          misses; the socket daemon's serving domain plus at most
          [jobs - 1] helpers *)
  fuel : int option;  (** default per-request budget; request may override *)
  deadline_s : float option;
  with_tests : bool;  (** default; request may override *)
  shards : int;  (** result-cache shard count ({!Shards}) *)
  cache_dir : string option;
      (** durable-store directory; [None] serves memory-only *)
  backlog : int;  (** [listen(2)] backlog for {!serve_socket} *)
  watermark : int option;
      (** queue depth from which grade requests are admitted on the
          degraded budget; needs [shed_fuel] to take effect *)
  shed_fuel : int option;
      (** the degraded-admission fuel clamp (requests keep the smaller
          of their own budget and this) *)
  event_log : string option;
      (** directory for the durable lifecycle event log
          ({!Jfeed_trace.Events}); [None] logs nothing *)
  event_ring : int option;
      (** event-log in-memory ring capacity (lines); [None] = default *)
  event_rotate : int option;
      (** event-log rotation size in bytes; [None] = default *)
  trace_sample : int option;
      (** retain the full span tree of every [N]th cache miss, on top
          of the slow/degraded/rejected retention rules *)
  slow_ms : float option;
      (** trace-retention latency threshold; defaults to [slo_ms] *)
  slo_ms : float option;
      (** grade-latency objective; turns on SLO counters, burn-rate
          gauges and the stats ["slo"] object *)
  slo_target : float;
      (** availability objective — the fraction of requests meant to
          finish within [slo_ms]; burn rates divide by [1 - slo_target] *)
}
(** Telemetry ([event_log] / [trace_sample] / [slow_ms] / [slo_ms]) is
    strictly additive: with all four unset, no response byte differs
    from the pre-telemetry daemon — correlation ids are then echoed
    only for requests that brought their own ["rid"]. *)

val default_config : config
(** cache 10000 over 8 shards, queue 64, jobs 1, no budget, tests on,
    memory-only, backlog 16, no degraded-admission tier, telemetry off
    (slo_target 0.999 once [slo_ms] is set). *)

(** {2 Cache entry codec}

    What the cache stores per key — everything needed to replay a
    response byte-for-byte (minus the envelope's [id]/[cached]
    fields) — and its durable-store value encoding.  Exposed so the
    test suite can check the codec round-trips. *)

type entry = {
  outcome_class : string;  (** taxonomy class of the stored outcome *)
  fuel_spent : int option;  (** response [fuel] field, when budgeted *)
  diag_counts : (string * int) list;  (** per-pass analysis findings *)
  result_json : string;  (** serialized Outcome, spliced verbatim *)
}

val encode_entry : entry -> string
(** Newline-framed header (class, fuel or [-], diagnostic count, one
    [pass n] line each) followed by the raw result JSON. *)

val decode_entry : string -> entry option
(** Total inverse of {!encode_entry}; [None] on any malformed input
    (boot-time replay skips such records rather than failing). *)

(** {2 Serving} *)

val serve_fd :
  config -> Unix.file_descr -> out_channel -> [ `Eof | `Shutdown ]
(** Serve one connection with fresh state: read requests from the
    descriptor, write responses to the channel (flushed after every
    batch).  Returns on end of input or on a [shutdown] request.  With
    [cache_dir] set, the durable store is replayed on entry and
    compacted + closed on return. *)

val serve_stdio : config -> unit
(** [serve_fd] over stdin/stdout — the [jfeed serve] default, drivable
    from cram tests and shell pipelines. *)

val serve_socket : config -> string -> unit
(** Listen on a Unix-domain socket at the given path and serve
    connections {e concurrently} through the event loop, sharing cache
    and metrics across them — connection n+1 hits the results
    connection n computed.  An existing file at the path is probed
    with a connect: if a daemon accepts, the start is refused with
    [Failure "socket \"PATH\" is served by another jfeed serve"] and
    no file is touched; a refused connect means a stale file, which is
    replaced.  The durable store and the event log open before the
    socket is bound, so a refused start (a locked cache directory,
    say) touches no socket file.  The socket is bound under a
    temporary name beside the path and renamed onto it once it
    listens: a client that finds the path can connect.  On exit the
    path is removed only while it is still this daemon's socket (the
    same inode).  A [shutdown] request or SIGINT/SIGTERM stops the
    daemon gracefully: admitted work finishes, output drains, the
    durable store is compacted and fsynced.  Every helper domain is
    joined before the function returns.  A client hangup only ends its
    connection. *)
