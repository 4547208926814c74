(** Functional testing of submissions (the paper's column T / the
    discrepancy baseline of column D).

    A suite is a set of input cases for an assignment's entry method.
    Expected outputs are produced by running the *reference solution*
    through the same interpreter; a submission passes when its stdout
    matches the expected output exactly on every case.  The comparison is
    deliberately order-sensitive — that is what makes print-order variants
    show up as discrepancies in the paper (§VI-B, Assignment 1). *)

type case = {
  label : string;
  args : Jfeed_interp.Value.t list;
  files : (string * string) list;  (** virtual file system for the case *)
}

type suite = { entry : string; cases : case list; max_steps : int }

type verdict = Pass | Fail of { case : string; reason : string }

val expected_outputs : suite -> Jfeed_java.Ast.program -> string list
(** Outputs of the reference solution, one per case.  Raises
    [Invalid_argument] if the reference itself fails — a harness bug, not
    a grading outcome.  Like {!report}, it compiles the program once
    ({!Jfeed_interp.Interp.compile}) and runs every case on it. *)

type report = {
  rep_total : int;  (** cases in the suite *)
  rep_ran : int;  (** cases actually executed *)
  rep_passed : int;
  rep_failures : (string * string) list;
      (** (case label, reason), in run order; the pseudo-case
          ["<suite>"] reports a malformed expected-output list *)
}

val report :
  ?budget:Jfeed_budget.Budget.t ->
  ?early_exit:bool ->
  suite ->
  expected:string list ->
  Jfeed_java.Ast.program ->
  report
(** Run the suite and account for every case.  By default all cases run
    and every failure is collected; [~early_exit:true] stops at the
    first failing case ([rep_ran < rep_total] then tells how far it
    got) — the cheap screening mode of the repair search, where one
    failure already disqualifies a candidate.  The program is compiled
    once per call, with [budget], and every case runs on it.  On a
    program that passes every case the two modes return identical
    reports.  Total: a malformed suite yields a ["<suite>"] failure
    entry, never an exception, so a bad test spec cannot crash a
    grading batch. *)

val run :
  ?budget:Jfeed_budget.Budget.t ->
  suite ->
  expected:string list ->
  Jfeed_java.Ast.program ->
  verdict
(** The first failure of an early-exit {!report}, or [Pass]: stops at the
    first failing case, and a malformed suite yields a [Fail] verdict on
    the pseudo-case ["<suite>"] instead of raising. *)

val passes :
  ?budget:Jfeed_budget.Budget.t ->
  suite ->
  expected:string list ->
  Jfeed_java.Ast.program ->
  bool
(** [run] gives [Pass]: the repair search's candidate screen. *)
