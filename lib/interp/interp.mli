(** Closure-compiling interpreter for the Java subset.

    Replaces the JVM for functional testing: programs print to a captured
    stdout, read files from a virtual file system through
    [java.util.Scanner], and run under a step budget so that the
    infinite-loop submissions the paper worries about terminate with a
    distinguishable outcome instead of hanging the harness.

    Each {!run} compiles every method of the program once into OCaml
    closures, with every local variable resolved to a slot of a per-call
    array frame, then calls the entry method.  Compilation is total:
    errors about names (an undefined variable, an unknown method) are
    runtime errors, raised when the code that names them runs.

    Step accounting: one step per executed statement (ticked before it
    runs), per loop iteration, and per call (ticked before its receiver
    and arguments are evaluated).  Each step also spends one unit of
    {!Jfeed_budget.Budget.Interp} fuel when a budget is given.

    Semantics notes:
    - [int] arithmetic wraps at 32 bits like the JVM ({!Value.wrap32});
    - [==] on strings is reference equality (use [.equals]);
    - division/modulo by zero, array bounds, missing files and Scanner
      misuse surface as runtime errors in {!outcome}. *)

exception Runtime_error of string
exception Step_limit

exception Fuel_exhausted
(** The shared grading budget ran dry mid-execution — distinct from
    {!Step_limit}, the per-run ceiling that flags looping submissions.
    Like every interpreter failure it is reported in {!outcome}
    (as ["fuel budget exhausted"]), never raised by {!run}. *)

type config = {
  files : (string * string) list;  (** virtual file system: name → content *)
  max_steps : int;
}

val default_config : config
(** No files, one million steps. *)

type outcome = {
  stdout : string;
  result : Value.t option;  (** [None] when execution failed *)
  steps : int;
  error : string option;
      (** runtime error, ["step limit exceeded"] (≈ infinite loop) or
          ["fuel budget exhausted"] (shared grading budget ran dry) *)
}

val run :
  ?budget:Jfeed_budget.Budget.t ->
  ?config:config ->
  Jfeed_java.Ast.program ->
  entry:string ->
  args:Value.t list ->
  outcome
(** Invoke [entry] with [args].  Runtime failures are reported in the
    outcome, never raised.  Each execution step additionally spends one
    unit of {!Jfeed_budget.Budget.Interp} fuel from [budget] (shared
    across runs), unifying the interpreter's step budget with the rest
    of the grading pipeline; [config.max_steps] remains the per-run
    ceiling. *)

val run_source :
  ?budget:Jfeed_budget.Budget.t ->
  ?config:config ->
  string ->
  entry:string ->
  args:Value.t list ->
  outcome
(** Parse then {!run}.  Parse errors do raise
    ({!Jfeed_java.Parser.Parse_error}). *)

val run_traced :
  ?budget:Jfeed_budget.Budget.t ->
  ?config:config ->
  Jfeed_java.Ast.program ->
  entry:string ->
  args:Value.t list ->
  outcome * (string * string) list list
(** Like {!run}, additionally collecting the CLARA-style variable trace:
    one name-sorted snapshot of the visible variables per executed
    statement.  Scalars are rendered in full; arrays and scanners only by
    a cheap summary (rendering a large array per snapshot would make
    tracing quadratic in the input size). *)
