(** Per-assignment bundles: the generator space (Table I column S), the
    grading specification (columns P and C), and the functional-test
    suite (column T) for each of the paper's twelve assignments. *)

type t = {
  gen : Jfeed_gen.Spec.t;
  grading : Jfeed_core.Grader.spec;
  suite : Jfeed_ftest.Runner.suite;
}

val patterns : t -> (Jfeed_core.Pattern.t * int) list
(** All (pattern, t̄) usages across the assignment's expected methods —
    its Table I column P is the length of this list. *)

val constraints : t -> Jfeed_core.Constr.t list
(** All constraints across the expected methods — column C. *)

val assignment1 : t
val esc_p2v2 : t
val mitx_derivatives : t
val mitx_polynomials : t

val all : t list
(** The twelve assignments, in Table I order. *)

val find : string -> t option
(** Look up by assignment id (e.g. ["esc-LAB-3-P2-V1"]). *)

val revision : unit -> string
(** Fingerprint of the whole knowledge base (hex digest, computed once):
    covers every bundle's patterns — templates, node types, edges,
    feedback texts, occurrence counts — variants, constraints, and
    flags.  Changing any grading-relevant KB content changes it, so a
    content-addressed result cache keyed on it
    ({!Jfeed_service.Normalize}) is invalidated wholesale by a KB edit
    and survives mere recompilation. *)
