(** Automated repair suggestions: search the single-edit space for the
    minimal fix (ROADMAP item 1; Singh et al., {i Automated Feedback
    Generation for Introductory Programming Assignments}).

    The search composes pieces the grading pipeline already owns: the
    error-model edit catalog ({!Jfeed_java.Edit}), the total interpreter
    with step budgets ({!Jfeed_interp.Interp}), the assignment's
    functional tests ({!Jfeed_ftest.Runner}) and the fuel/deadline
    budget layer ({!Jfeed_budget.Budget}).  Enumerate every candidate
    single edit, prioritize the ones the pattern grader points at
    (edits inside methods with non-[Correct] comments first, then by
    error-model likelihood), screen each candidate against the suite
    under its own fuel cap, and rank the passing candidates by edit
    distance to the submission — the minimal fix wins.

    {b Totality.}  [search] never raises and never hangs: candidate
    screening is fuel-capped per candidate, the overall walk stops when
    the repair budget runs dry ([exhausted] is set; the answer degrades
    to "no repair found within budget"), and any crash — unparseable
    source, a failing reference suite — lands in an [Unrepairable]
    outcome.

    {b Determinism.}  With a fuel-only budget the outcome is a pure
    function of (bundle, source, fuel): candidates are charged against
    the budget in priority order whatever the evaluation order, so the
    output is byte-identical at every [?jobs] width.  A [?deadline_s]
    bound reads the process-wide CPU clock and carries the same
    fixed-jobs reproducibility caveat as batch grading. *)

type status =
  | Already_passing  (** the submission passes the suite as-is *)
  | Repaired  (** a passing single edit was found; see [hint] *)
  | No_repair
      (** every tried candidate fails the suite (or the budget ran dry
          first — see [exhausted]) *)
  | Unrepairable of string
      (** the search could not start: unparseable source, failing
          reference suite, … *)

type hint = {
  h_kind : Jfeed_java.Edit.kind;
  h_meth : string;  (** submission method holding the edit *)
  h_pos : Jfeed_java.Srcmap.pos option;
      (** enclosing statement/declarator position in the submission *)
  h_before : string;  (** canonical rendering of the expression to change *)
  h_after : string;  (** what to change it to *)
  h_distance : int;
      (** Levenshtein distance between the canonical submission source
          and the repaired source — the minimality metric *)
  h_rank : int;  (** 1-based position of the edit in priority order *)
  h_source : string;  (** the repaired program, canonical rendering *)
}

type outcome = {
  status : status;
  hint : hint option;  (** [Some] iff [status = Repaired]: the minimal fix *)
  candidates : int;  (** candidate edits screened against the suite *)
  sites : int;  (** candidate edits enumerated *)
  passing : int;  (** screened candidates that pass the whole suite *)
  fuel_spent : int;  (** interpreter fuel consumed by screening *)
  exhausted : bool;  (** the repair budget cut the candidate list short *)
}

val default_fuel : int
(** Default repair fuel (interpreter steps across all screenings). *)

val search :
  ?fuel:int ->
  ?deadline_s:float ->
  ?jobs:int ->
  Jfeed_kb.Bundles.t ->
  string ->
  outcome
(** Search the edit space for the minimal passing fix to [src].
    [?fuel] (default {!default_fuel}) bounds total screening work;
    [?deadline_s] adds a CPU-time bound checked between evaluation
    batches; [?jobs] (default 1) screens candidates on that many domains
    ({!Jfeed_parallel.Pool}) without changing the outcome.

    Traced as a [repair] span with [repair.candidates], [repair.found]
    and [repair.fuel] counters on the ambient tracer
    ({!Jfeed_trace.Trace.current}). *)

val to_json : outcome -> string
(** The outcome as a single-line JSON object with stable field order:
    [status], then (for [Repaired]) [kind] / [method] / [line] / [col] /
    [before] / [after] / [distance] / [rank], then (for [Unrepairable])
    [error], then always [candidates] / [sites] / [passing] /
    [exhausted] / [fuel].  [line] / [col] appear only when the srcmap
    located the edit.  This is the object spliced into the grading
    Outcome JSON as its ["repair"] field. *)

val render : outcome -> string
(** Human-readable summary, possibly multi-line:
    ["repair found: change `i <= n` to `i < n` at line 4 in sum
    \[cmp-flip\]"], plus a search-accounting line. *)

val candidates_total : unit -> int
val found_total : unit -> int
val fuel_total : unit -> int
(** Process-wide totals (monotone atomics, summed over every {!search}
    in this process) — read by the serve metrics exposition as the
    [jfeed_repair_*] counter families. *)
