(** Closure-compiling interpreter for the Java subset.

    Replaces the JVM for functional testing: programs print to a captured
    stdout, read files from a virtual file system through
    [java.util.Scanner], and run under a step budget so that the
    infinite-loop submissions the paper worries about terminate with a
    distinguishable outcome instead of hanging the harness.

    Each {!run} compiles every method of the program once into OCaml
    closures, with every local variable resolved to a slot of a per-call
    array frame, then calls the entry method; {!compile} and
    {!run_compiled} compile once for a whole test suite.  Compilation is
    total: errors about names (an undefined variable, an unknown method)
    are runtime errors, raised when the code that names them runs.

    Typed closures.  Code the compiler can prove [int] or [boolean]
    compiles to closures that return an unboxed [int] or [bool]:
    conditions, [int] arithmetic, comparisons, and reads and writes of
    locals proven to hold one kind.  A declared type does not bind the
    runtime value ([int s = 0; s += 1.5;] leaves a double in [s]), so a
    local is proven only when every declaration of its name in the
    method has that type and every write to it is of that kind.  A
    method declared [int] or [boolean] whose every path returns such a
    value returns it unboxed to a caller that passes arguments of the
    parameters' declared kinds; other callers get the same result boxed,
    and a call whose [int] or [boolean] arguments hold other values runs
    a body that assumes nothing and runs on boxed values.  The analysis
    is linear in the program's size.  Everything else runs on boxed
    {!Value.t}s with the same results and errors.

    Step accounting: one step per executed statement (ticked before it
    runs), per loop iteration, and per call (ticked before its receiver
    and arguments are evaluated).  Each step also spends one unit of
    {!Jfeed_budget.Budget.Interp} fuel when a budget is given.  The
    units are spent in bulk: up to the budget's
    {!Jfeed_budget.Budget.headroom} the interpreter only counts its
    steps, and it spends them in one go when it leaves the headroom or
    the run ends.  The step at which the fuel runs out or the deadline
    is polled is spent on its own, so steps, fuel per stage, hits and
    the deadline's poll points are those of one spend per step.

    Endless counter loops are charged in bulk.  Take a [while] or [for]
    loop whose straight-line [int] body moves its counter by a constant
    away from a loop-invariant bound, for example
    [for (int i = 1; i <= n; i--) f *= i;].  When the state at its start
    shows that the step limit or the fuel stops the run before the
    counter could wrap, {!run} charges the remaining steps in one
    budget spend.  It then reports the error the loop would reach, at
    the same step count with the same fuel spent.  The body prints
    nothing, so stdout is unchanged.  {!run_traced} runs every step,
    because it snapshots each one.

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
(** Compile the program, then invoke [entry] with [args].  Runtime
    failures are reported in the outcome, never raised.  Each execution
    step additionally spends one unit of {!Jfeed_budget.Budget.Interp}
    fuel from [budget] (shared across runs), unifying the interpreter's
    step budget with the rest of the grading pipeline;
    [config.max_steps] remains the per-run ceiling. *)

type compiled
(** A program compiled for runs that share one budget. *)

val compile : ?budget:Jfeed_budget.Budget.t -> Jfeed_java.Ast.program -> compiled
(** Compile every method of the program once, for any number of
    {!run_compiled} calls that spend from [budget]: a test suite
    compiles the program once and runs each case on it. *)

val run_compiled :
  compiled -> config:config -> entry:string -> args:Value.t list -> outcome
(** Like {!run} on the compiled program: the same outcome, steps and
    fuel.  Each run starts afresh, with no steps, an empty stdout, and
    the files and step limit of [config]. *)

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
