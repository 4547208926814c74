(** Total, budgeted grading entry points — the resilience layer.

    Every function here returns an {!Outcome.t}; no exception escapes,
    whatever the submission looks like ([Stack_overflow] from
    pathological nesting, [Invalid_argument] from a malformed suite,
    [Out_of_memory], lexer and parser failures…).  Work is bounded by
    an optional {!Budget} shared across the matcher, the pairing search
    and the interpreter.

    The degradation ladder, tried top to bottom:
    + full Algorithm 2 grading (the paper's system) — [Graded], or
      [Degraded] when a budget cut work short;
    + per-method grading with blown-up methods skipped — each expected
      method is graded in isolation; the ones that still crash are
      reported as missing, with a {!Outcome.Method_skipped} reason;
    + parse-only diagnostics — when every method fails, the report
      degenerates to the full "does not adhere to the specification"
      comment set, but the submission is still parsed, classified and
      scored rather than dropped.

    Only unparseable input is [Rejected]. *)

val assess :
  ?budget:Jfeed_budget.Budget.t ->
  ?with_tests:bool ->
  Jfeed_kb.Bundles.t ->
  string ->
  Outcome.t
(** Grade a source string against the bundle's grading spec, guarded by
    the ladder, then (unless [~with_tests:false], which reports
    [tests = Tests_not_run]) run the bundle's functional-test suite
    under the same budget.  A submission that merely {e fails} the tests is still
    [Graded] — test failure is a grading verdict, not a degradation;
    but fuel exhaustion mid-test ({!Outcome.Interp_exhausted}) or an
    unrunnable suite ({!Outcome.Tests_skipped}) degrade. *)

(** {2 Batch driver} *)

type item = {
  file : string;
  outcome : Outcome.t;
  fuel_spent : int;  (** fuel this submission consumed *)
  trace : Jfeed_trace.Trace.t;
      (** this submission's tracer; {!Jfeed_trace.Trace.disabled} unless
          the caller asked for tracing *)
}

val grade_submission :
  ?fuel:int ->
  ?deadline_s:float ->
  ?rid:string ->
  ?with_tests:bool ->
  ?name:string ->
  ?trace:Jfeed_trace.Trace.t ->
  Jfeed_kb.Bundles.t ->
  string ->
  item
(** Assess one source string with batch-grade isolation: a fresh budget
    ([?fuel] / [?deadline_s]) guards this call alone, and {e any}
    failure — including a bug inside the pipeline — lands in the item's
    outcome rather than an exception.  This is the persistent grading
    service's entry point ({!Jfeed_service.Server}): the bundle is a
    static value, so nothing is re-loaded per request.  [?name] (default
    ["<submission>"]) fills the item's [file] field.

    [?trace] (default disabled) is installed as the ambient tracer for
    the whole assessment ({!Jfeed_trace.Trace.with_current}), so every
    instrumented stage — [parse], [epdg], [match:<pattern>], [pairing],
    [interp], [analysis], [tests] — records into it; afterwards the
    per-stage fuel breakdown ({!Jfeed_budget.Budget.spent_by}) is added
    as [fuel.matcher] / [fuel.pairing] / [fuel.interp] counters.  The
    tracer is returned in the item's [trace] field.

    [?rid] wraps the whole assessment in one extra root span named
    ["request"] whose [rid] attribute carries the correlation id, so
    every stage span of a request-scoped trace descends from a node
    naming the request it served.  Absent (every non-serving caller),
    the span tree is unchanged. *)

type dedup_stats = {
  classes : int;
      (** α-equivalence classes among the readable submissions *)
  replayed : int;
      (** submissions answered by replaying their class representative *)
}

type summary = {
  assignment : string;
  total : int;
  graded : int;
  degraded : int;
  rejected : int;
  fuel_limit : int option;  (** per-submission allowance, when bounded *)
  dedup : dedup_stats option;  (** [None] when dedup was turned off *)
  items : item list;  (** input order *)
}

val dedup_classes : unit -> int
val dedup_replayed : unit -> int
(** Process-wide dedup totals (monotone atomics, summed over every
    {!run_batch} call) — read by the serve metrics exposition alongside
    the {!Jfeed_core.Plan} counters. *)

val run_batch :
  ?fuel:int ->
  ?deadline_s:float ->
  ?with_tests:bool ->
  ?jobs:int ->
  ?traced:bool ->
  ?dedup:bool ->
  Jfeed_kb.Bundles.t ->
  (string * (string, string) result) list ->
  summary
(** Assess each [(name, source)] pair with per-submission isolation: a
    fresh budget per submission ([?fuel] / [?deadline_s] bound each one
    independently), and any failure confined to its own item.  A pair
    whose source is [Error msg] (the caller could not read the file)
    is [Rejected] at stage ["read"].

    [?jobs] (default 1) grades submissions on that many parallel
    domains ({!Jfeed_parallel.Pool}).  The summary — items, order,
    counts, fuel — is {e byte-identical} at every [jobs] value when
    budgets are fuel-only: each submission gets its own fresh [?fuel]
    allowance whatever domain it runs on (per-domain pools sum to
    submissions × [?fuel]; see {!Jfeed_budget.Budget.split}), and
    results merge by input index, not completion order.  A
    [?deadline_s] budget reads the process-wide CPU clock, which
    several domains advance together, so deadline-bounded output is
    only reproducible at a fixed [jobs] value.

    [?traced] (default off) gives every submission a fresh live tracer
    ({!Jfeed_trace.Trace.create}), created {e inside} the worker so each
    domain writes only its own buffers; traces merge deterministically
    by submission index like every other item field.

    [?dedup] (default on) first groups the batch into α-equivalence
    classes by the serve cache's fingerprint
    ({!Jfeed_java.Fingerprint}: α-rename + canonical-print hash, raw
    bytes for unparseable input), grades only the {e first} member of
    each class — fuel is charged once, under that representative's own
    fresh budget — and replays the representative's item for every other
    member.  The grading report, test verdict, degradation reasons,
    fuel count and trace are α-invariant, so each replayed line is
    byte-identical to what independent grading would have produced,
    except analysis diagnostics (which quote member positions and
    variable names) — those are re-computed from the member's own bytes.
    Unique submissions are unaffected, and the work list is fixed before
    grading starts, so the dedup path is jobs-invariant like the plain
    one.  Deadline budgets carry the same caveat as jobs-invariance:
    wall-clock cut-offs are not reproducible, deduped or not.
    [~dedup:false] restores strict per-submission grading (and drops the
    summary's [dedup] field). *)

val summary_to_json : ?traces:bool -> summary -> string
(** Stable field order, one submission per line:
    [{"assignment":…,"total":…,"graded":…,"degraded":…,"rejected":…,
    ("fuel":…,)("dedup":{"classes":…,"replayed":…},)"submissions":[…]}].
    The per-submission [fuel] field appears only when a fuel limit was
    set, so unbudgeted output is byte-stable across runs; the [dedup]
    object appears unless the batch ran with [~dedup:false].  When the batch ran with [~traced:true]
    and [?traces] (default [true]) is not turned off, each submission
    line additionally carries its [trace] summary (see
    {!Outcome.to_json}); span timings vary run to run, the rest of the
    line does not.  [~traces:false] lets a caller that only wants the
    Chrome trace files ([jfeed batch --trace-dir] without [--trace])
    keep stdout byte-identical to an untraced run. *)

val exit_code : summary -> int
(** [0] when every submission graded cleanly, [1] when any was degraded
    or rejected — the batch CLI contract ([2] is reserved for usage
    errors, decided by the CLI itself). *)
