(** Algorithmic-strategy enforcement (paper §VI-C "Structural
    requirements" / §VII): named sets of extra constraints layered on an
    assignment's grading specification. *)

type t = {
  s_id : string;
  s_title : string;
  applies_to : string;  (** assignment id *)
  extra : (string * Jfeed_core.Constr.t list) list;
      (** expected method → constraints *)
}

val apply : t -> Jfeed_core.Grader.spec -> Jfeed_core.Grader.spec

val assignment1_single_loop : t
(** Both parity accesses must sit under the same loop and index — the
    paper's "only one single loop in our Assignment 1". *)

val all : t list
val find : string -> t option
