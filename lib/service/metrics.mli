(** Live serving statistics: counters, grade-latency percentiles, and
    the one table both control-plane answers are rendered from.

    One instance per server; every counter is monotone over the server's
    lifetime.  Latencies go into a fixed-size ring (the last
    {!reservoir_cap} grades), so a long-lived daemon's percentiles track
    {e recent} behaviour and memory stays bounded.

    Every metric is one {!row} of {!table}: its exposition family, HELP
    text and type, its [stats] path, and its samples.  {!stats} and
    {!exposition} both walk that table in order, so a new metric is one
    row and appears in both answers at once, wherever the row sits. *)

type t

val create : unit -> t

val slowlog_cap : int
(** Slowlog entries kept (10). *)

(** {2 Recording} *)

val record_request : t -> unit
(** Any parsed or attempted request line. *)

val record_error : t -> unit

val record_stats_req : t -> unit

val record_shed : t -> unit
(** One grade request refused by admission control (queue full or
    queue-wait deadline exceeded).  Shed requests never reach
    {!record_grade} — they are refusals, not outcomes. *)

val record_degraded_admission : t -> unit
(** One grade request admitted past the watermark with the degraded
    [shed_fuel] budget.  The request still reaches {!record_grade}
    with whatever outcome the shrunken budget produced. *)

val record_grade : t -> outcome:string -> hit:bool -> ms:float -> unit
(** One grade response: [outcome] is the taxonomy class
    (["graded"] / ["degraded"] / ["rejected"]), [hit] whether it was
    served from the result cache (including in-flight batch duplicates),
    [ms] the request's service time. *)

val record_diags : t -> (string * int) list -> unit
(** Static-analysis findings delivered with a grade response, as
    per-pass counts ({!Jfeed_analysis.Passes.count_by_pass}).  Counted
    on cache hits and in-flight duplicates too — the client received
    those diagnostics all the same. *)

val record_slow : t -> Proto.slow_entry -> unit
(** Offer one grade request to the slowlog; kept iff it ranks among the
    {!slowlog_cap} slowest seen so far (ties keep the older entry
    first). *)

val observe_queue_depth : t -> int -> unit
(** Track the high-water mark of the grade queue. *)

val record_slo : t -> ok:bool -> unit
(** One SLO verdict: [ok] iff the request finished within the latency
    objective (sheds are always bad).  Stamped with the monotonic clock
    into a {!reservoir_cap} ring for trailing-window burn rates. *)

val record_trace_retained : t -> unit
(** One request whose full span tree was retained by tail-based
    sampling (slow, degraded, rejected, or 1-in-N sampled). *)

(** {2 Reading} *)

val slo_good : t -> int
val slo_bad : t -> int

val burn_rate : t -> target:float -> window_s:float -> float
(** Error-budget burn rate over the trailing window: the bad fraction
    of the window's verdicts divided by the budget [1 - target].  1.0
    means the budget is being spent exactly at the sustainable rate;
    an empty window (or [target >= 1]) burns 0. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [[0, 1]]: nearest-rank percentile of
    the latency reservoir in milliseconds; [0.0] before the first
    grade. *)

val slowlog : t -> Proto.slow_entry list
(** Slowest grades first, at most {!slowlog_cap}. *)

(** {2 The metrics table} *)

type kind = Counter | Gauge | Histogram

type value = Int of int | Float of float
(** Integers render as [%d] in both answers; floats as [%.3g] in
    [stats] and [%.6g] in the exposition. *)

type sample = {
  suffix : string;  (** appended to the family name: [_bucket], [_sum]… *)
  labels : (string * string) list;  (** rendered [k="v"] *)
  value : value;
}

type row = {
  family : string option;  (** exposition name; [None]: [stats] only *)
  help : string;
  kind : kind;
  path : string list option;
      (** [stats] path; [None]: exposition only.  A labelled sample
          extends the path by its label values, so a labelled row is a
          [stats] object keyed by them. *)
  samples : sample list;
}

(** The socket daemon's serving tier: figures the [t] counters don't
    know about. *)
type serving = {
  shard_counters : (int * int) array;
      (** per-shard (hits, misses), {!Shards.counters} *)
  conns : int;  (** open client connections *)
  store : (int * int * int * int) option;
      (** (recovered, dropped_bytes, appended, compactions) of the
          durable store; [None] when serving memory-only *)
}

(** What one [stats] or [metrics] request sees beyond the counters.
    Each option adds its rows to the table only when present. *)
type view = {
  cache_size : int;
  cache_cap : int;
  queue_depth : int;  (** grade requests queued when the request ran *)
  queue_cap : int;
  serving : serving option;  (** socket daemon only *)
  slo : (float * float) option;  (** (objective ms, target), [--slo-ms] *)
  events : (int * int * int) option;
      (** event log (emitted, dropped, rotations), [--event-log] *)
}

val table : t -> view -> row list
(** Every metric, in [stats] order: requests, grades, stats, errors,
    cache, outcomes, diagnostics, queue; the serving tier (admission,
    shards, conns, store); latency_ms, absint, slo.  Exposition-only
    rows — the latency histogram over {!latency_buckets}, build info,
    retained traces, the SLO objective, event-log, per-shard, plan,
    dedup and repair counters — sit among them.  No two rows share a
    family or a path. *)

val stats : t -> view -> string
(** The [stats] response's fields, comma-separated: every sample of
    every row with a path, in table order, consecutive paths that share
    a first key nested under it.  Wrapped by {!Proto.stats_response}. *)

val exposition : t -> view -> string
(** The Prometheus text exposition: every row with a family, in table
    order, as [# HELP], [# TYPE] and its samples, then [# EOF] (no
    trailing newline).  [jfeed_grades_total] always equals the [stats]
    answer's [grades]: both are the same row. *)
