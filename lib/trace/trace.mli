(** Structured tracing: spans, counters, Chrome [trace_event] output.

    A {!t} collects what one unit of work — typically one graded
    submission or one served request — spent its time and fuel on:
    nested {e spans} (named intervals with monotonic-clock timestamps
    and key/value attributes) and named monotone {e counters}.  The
    instrumented pipeline stages are [parse], [epdg], [match:<pattern
    id>], [pairing], [tests] / [interp], and [analysis] / [pass:<pass
    id>].

    {b Disabled is free.}  {!disabled} is a nil sink: every recording
    operation pattern-matches it and returns immediately — no clock
    read, no allocation — so instrumentation can stay in the hot path
    permanently.  The benchmark gate ({!Jfeed_robust} corpus through
    [jfeed-bench micro]) holds the untraced path within 5% of the
    uninstrumented baseline.

    {b Concurrency.}  A [t] is single-domain: it must only be written
    by the domain that created it.  The {e ambient} trace ({!current} /
    {!set_current}) lives in [Domain.DLS], so every domain of a
    {!Jfeed_parallel.Pool} has its own slot (like the
    {!Jfeed_exprmatch.Template} regex memo): batch workers install a
    fresh trace per submission and the per-item traces merge
    deterministically by submission index, never by completion order. *)

external now_ns : unit -> (int64[@unboxed])
  = "jfeed_trace_now_ns_byte" "jfeed_trace_now_ns_unboxed"
[@@noalloc]
(** Monotonic clock, nanoseconds ([CLOCK_MONOTONIC]); never jumps
    backwards.  [noalloc]: reading it cannot trigger GC work. *)

type t

val disabled : t
(** The nil sink.  Recording into it is a no-op. *)

val create : unit -> t
(** A fresh enabled collector; its creation instant is the zero point
    of the Chrome output's [ts] axis. *)

val enabled : t -> bool

val scratch : unit -> t
(** This domain's reusable tracer, reset and ready to record.
    One per domain in [Domain.DLS]; the caller must serialize anything
    it wants to keep before the next [scratch] call on this domain
    recycles the buffer. *)

(** {2 Recording} *)

val span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span: begin timestamp on entry,
    duration on exit (normal or exceptional), parent = the innermost
    span open on entry.  On {!disabled} this is exactly [f ()]. *)

val add_attr : t -> string -> string -> unit
(** Attach a key/value attribute to the innermost open span — for
    values only known mid-span (embedding counts, fuel spent).  No-op
    when disabled or when no span is open. *)

val count : t -> string -> int -> unit
(** [count t name n] adds [n] to the named counter, creating it at
    first use.  Counter report order is first-use order, so output is
    deterministic for a deterministic workload. *)

(** {2 The ambient trace}

    Threading a [t] through every signature between the pipeline and
    the matcher's inner loop would churn each layer's API for a value
    almost every caller leaves disabled.  Instead the current trace is
    ambient, keyed per domain in [Domain.DLS]; instrumentation sites
    read {!current} (disabled unless someone installed one). *)

val current : unit -> t
(** This domain's ambient trace; {!disabled} unless installed. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Install for the dynamic extent of the callback, restoring the
    previous ambient trace afterwards (also on exceptions). *)

(** {2 Inspection} *)

type span_info = {
  sid : int;  (** unique within the trace, 1-based, begin order *)
  parent : int;  (** [sid] of the enclosing span, [0] for roots *)
  name : string;
  start_ns : int64;  (** absolute {!now_ns} at begin *)
  dur_ns : int64;  (** [-1L] while still open *)
  attrs : (string * string) list;
}

val spans : t -> span_info list
(** All spans in begin order ([] for {!disabled}). *)

val counters : t -> (string * int) list
(** Counters in first-use order. *)

val rollup : t -> (string * (int * int64)) list
(** Per-stage totals [(stage, (span count, total ns))] in first-seen
    order, where a span's {e stage} is its name truncated at the first
    [':'] — so [match:p_loop] and [match:p_print] both aggregate into
    [match].  Open spans contribute a zero duration. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted p] with [p] in [[0, 1]]: the nearest-rank
    percentile of an ascending array — the smallest sample with at
    least [p] of the mass at or below it; [0.0] when empty. *)

(** {2 Serialization} *)

val json_escape : string -> string
(** JSON string-content escaping (quotes, backslashes, control bytes).
    The repository's one escaper: this library sits below every JSON
    writer. *)

val json_string : string -> string
(** {!json_escape} between double quotes: a whole JSON string literal. *)

val to_chrome_json : ?pid:int -> ?tid:int -> t -> string
(** The Chrome [trace_event] JSON array format (loadable in
    [about:tracing] and Perfetto): one complete ["ph":"X"] event per
    span with [ts]/[dur] in microseconds relative to {!create}, plus
    one final ["ph":"C"] counter event carrying {!counters}.  [pid]
    defaults to 1; [tid] (default 1) distinguishes worker domains when
    a caller merges several traces into one file. *)

val spans_json : t -> string
(** The span tree as a single-line JSON array —
    [[{"sid":…,"parent":…,"name":…,"start_us":…,"dur_us":…,"attrs":{…}},…]]
    with microseconds relative to the trace zero point — suitable for
    embedding in a JSONL event line (no newlines, unlike
    {!to_chrome_json}).  [[]] for {!disabled}. *)

val summary_json : t -> string
(** The compact per-stage summary embedded under ["trace"] in
    {!Jfeed_robust.Outcome.to_json}:
    [{"stages":{<stage>:{"n":…,"ms":…},…},"counters":{…}}] with
    stages from {!rollup} and milliseconds to 4 decimal places. *)
