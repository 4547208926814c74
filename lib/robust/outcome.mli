(** The total outcome taxonomy of the resilient grading pipeline.

    Every grading entry point of {!Pipeline} returns one of three
    outcomes — there is no fourth possibility and no escaping
    exception:

    - [Graded]: the full Algorithm 2 search ran to completion; the
      report is exactly what the paper's system would produce.
    - [Degraded]: a report was produced, but something was cut short —
      a budget ran dry mid-search, a stage crashed and the fallback
      ladder recovered, the functional tests could not run.  Each cut
      is named by a {!reason}; truncation is never silent.
    - [Rejected]: the submission could not be read at all (lex/parse
      failure, unreadable file); the diagnostic says which stage gave
      up and why.  Rejection is a property of the input, not of the
      budget — a starved budget degrades, it never rejects. *)

type reason =
  | Matcher_exhausted of string
      (** the embedding search for this pattern id was cut (fuel or the
          {!Jfeed_core.Matcher.max_embeddings} backstop) *)
  | Pairing_exhausted
      (** the method-pairing combination search stopped early *)
  | Interp_exhausted
      (** the interpreter ran out of shared fuel during functional
          testing *)
  | Method_skipped of string * string
      (** (expected method, error): this method's grading crashed even
          in isolation; its patterns were reported as missing *)
  | Crash_recovered of string
      (** the full-grade pass died with this error; the per-method
          fallback ladder produced the report instead *)
  | Tests_skipped of string
      (** the functional-test stage could not run (e.g. the reference
          solution failed); pattern feedback stands, column T is absent *)

val stage_of_reason : reason -> string
(** ["matcher"] / ["pairing"] / ["interp"] / ["ladder"] / ["tests"]. *)

(** Functional-test verdict carried alongside the pattern report. *)
type test_status =
  | Tests_passed
  | Tests_failed of string * string  (** failing case, reason *)
  | Tests_not_run

type report = {
  grading : Jfeed_core.Grader.result;
  tests : test_status;
  diags : Jfeed_analysis.Diagnostic.t list;
      (** static-analysis findings on the submission (the five
          {!Jfeed_analysis.Passes} passes), computed once at parse time;
          empty when analysis itself failed — analysis never rejects *)
}

type diagnostic = { stage : string; message : string }

type t =
  | Graded of report
  | Degraded of report * reason list
  | Rejected of diagnostic

val classify : t -> string
(** ["graded"] / ["degraded"] / ["rejected"] — the JSON outcome tag. *)

val report : t -> report option
(** The report, when one exists ([Graded] or [Degraded]). *)

val reasons : t -> reason list
(** Degradation reasons; empty for [Graded] and [Rejected]. *)

val to_json :
  ?file:string ->
  ?comments:bool ->
  ?repair:string ->
  ?trace:Jfeed_trace.Trace.t ->
  t ->
  string
(** One submission's outcome as a single-line JSON object with stable
    field order: [file] (when given), [outcome], then per-outcome
    fields — [score]/[max]/[tests]/[reasons]/[diags] for graded and
    degraded, [stage]/[error] for rejected.  [diags] is the diagnostic
    count; [?comments] (default off, preserving the batch summary's
    one-line-per-submission shape) additionally appends the full
    [diagnostics] array and the instantiated feedback comments as a
    [comments] array — the serving tier's full payload.  [?repair]
    (default absent) splices a pre-rendered repair-hint object
    ({!Jfeed_repair.Repair.to_json} upstream) in as a [repair] field, so
    output without the option is byte-identical — the same stability
    rule as tracing.  [?trace]
    (default {!Jfeed_trace.Trace.disabled}) appends a compact [trace]
    object ({!Jfeed_trace.Trace.summary_json}: per-stage span counts
    and total milliseconds, plus counters) when — and only when — the
    tracer is live, so untraced output is byte-identical with or
    without the argument. *)
