(** The persistent grading daemon ([jfeed serve]).

    One serving loop, one request path.  Each request line goes
    through one decoder, which counts it and turns it into a grade
    request (defaults filled in, correlation id minted, admitted), an
    error reply, a shutdown reply, or a renderer for [stats], [metrics]
    or [slowlog] that the loop calls with its view of the queue.  A
    grade request is resolved against the content-addressed result
    cache ({!Normalize} keys into the sharded {!Shards} LRU; a request
    whose key is already being graded waits on that computation); a
    miss is graded under one fresh per-request budget
    ({!Jfeed_robust.Pipeline.grade_submission}) and answered with one
    response line.  A malformed line costs one [error] response, never
    the daemon, and so does an exception escaping the pipeline or a
    line longer than {!max_line} bytes.

    The loop is a select(2) event loop over a listener, when there is
    one ({!serve_socket}), and its connections, or over the one
    connection of a daemon without a listener ({!serve_fd},
    {!serve_stdio}).  It is run leader/followers style by the grading
    domains: the serving domain and up to [jobs - 1] helper domains
    share the loop state under one lock, any free domain runs a loop
    turn, and a domain that takes a miss grades it outside the lock and
    then answers it itself, so a miss is graded as soon as a domain is
    free and answered as soon as it is graded.  Helpers are spawned
    only when work waits while every domain grades, and retire after
    16 minor collections parked.  Each connection keeps a FIFO of
    slots: a finished line, or an answer cell that the request's
    answer fills.  Slots drain in order, so per-connection response
    order holds while the cells of different connections fill in any
    order; a slow reader only stalls itself (its output backlog trips
    flow control and its input waits in the kernel buffer).  Responses
    do not depend on [jobs].

    Every non-grade line is a barrier on its connection: it renders
    once every earlier answer of its connection is out, and the
    connection's later lines are not admitted before then.  A [stats]
    answer thus counts every earlier request of its connection, and
    reports the live queue depth: the grade requests admitted and not
    yet answered, whether queued, being graded or waiting on a
    duplicate's grading.  Admission control holds at most [queue_cap]
    such requests.  With a listener, a grade line past that is shed
    with an explicit [rejected:"overloaded"] line; without one, the
    daemon stops taking lines, which wait in the pipe (backpressure
    without an unbounded heap), so stdio never sheds for a full queue.
    Between [watermark] and the cap requests are admitted on a
    degraded fuel budget, and a request whose deadline passed while it
    was queued is shed.  The loop stops on a [shutdown] request, on
    SIGINT/SIGTERM, or, without a listener, at the end of its input
    once every answer is written, or when its output is closed; then
    no further line is admitted, in-flight work finishes, output
    drains and the durable store is flushed.

    With [cache_dir] set, the result cache is durable: every fresh
    grade is appended to a checksummed log ({!Store}) the moment it is
    computed, and a restart — even after [kill -9] — replays the log
    into a warm cache whose hits answer [cached:true], byte-identical.

    The KB is compiled in and every per-assignment structure is a
    static value, so a fresh daemon serves its first request without a
    warm-up phase. *)

type config = {
  cache_cap : int;  (** result-cache entries; [0] disables caching *)
  queue_cap : int;
      (** max grade requests admitted and unanswered; past it a daemon
          with a listener sheds, one without stops reading *)
  jobs : int;
      (** grading domains: the serving domain plus at most [jobs - 1]
          helpers *)
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

val max_line : int
(** The longest request line taken, in bytes without its newline:
    1 MiB.  A longer line is answered with one [error] line that names
    the bound, its bytes are discarded through its newline, and the
    connection keeps being served. *)

val serve_fd :
  config -> Unix.file_descr -> Unix.file_descr -> [ `Eof | `Shutdown ]
(** [serve_fd config input output] serves one connection with fresh
    state and no listener: requests are read from [input], answers
    written to [output] as soon as they are due.  The connection works
    on duplicates of both descriptors, which it closes; the caller's
    stay open, and neither is switched to non-blocking mode.  Returns
    [`Shutdown] after a [shutdown] request, [`Eof] once input ended and
    every answer is written (or output was closed, or SIGINT/SIGTERM
    arrived).  With [cache_dir] set, the durable store is replayed on
    entry and compacted + closed on return. *)

val serve_stdio : config -> unit
(** [serve_fd] over stdin/stdout — the [jfeed serve] default, drivable
    from cram tests and shell pipelines. *)

val serve_socket : config -> string -> unit
(** Listen on a Unix-domain socket at the given path and serve
    connections {e concurrently} through the serving loop, sharing
    cache and metrics across them — connection n+1 hits the results
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
