(** Synthetic submission spaces (paper §VI-A).

    Following Singh et al.'s hypothesis that student errors are
    predictable, each assignment is a reference solution plus a set of
    *choice points*; every choice point offers the correct fragment and
    alternative fragments (common student errors, benign stylistic
    variations, or the discrepancy-inducing variants from the paper's
    §VI-B discussion).  The search space of submissions is the cartesian
    product of the choices — its size is Table I's column S — and a
    submission is addressed by a single index in [0, size) through
    mixed-radix decoding. *)

(** What an option does to the two assessment channels, *assuming every
    other choice point is at a [Good] option*:
    - [Good]: functional tests pass and the pattern feedback is positive —
      includes benign stylistic variants the knowledge base accepts;
    - [Bad]: a detected error — both channels agree it is wrong;
    - [Disc_neg_feedback]: functionally correct but the patterns flag it
      (the paper's "i = 1", log10 digit counting, Fig. 7 duplicated
      residues);
    - [Disc_pos_feedback]: functionally failing but the patterns accept
      it (the paper's print-order submissions). *)
type quality = Good | Bad | Disc_neg_feedback | Disc_pos_feedback

type choice = {
  tag : string;  (** e.g. ["odd-init"] *)
  labels : string array;  (** one label per option, for reporting *)
  quality : quality array;
}

type t = {
  id : string;  (** assignment id as in Table I *)
  title : string;
  entry : string;  (** entry method for functional testing *)
  expected_methods : string list;  (** Q of Algorithm 2 *)
  choices : choice array;
  render : int array -> string;  (** choice vector → Java source *)
}

val choice : string -> (string * quality) list -> choice

val size : t -> int
(** Table I's column S: the product of the choice arities. *)

val decode : t -> int -> int array
(** Mixed-radix decoding: index → one option per choice point.  Raises
    [Invalid_argument] outside [0, size). *)

val encode : t -> int array -> int
(** Left inverse of {!decode}. *)

val source_of_index : t -> int -> string

val all_good : t -> int array -> bool
(** Every choice point at a [Good] option. *)

val deviations : t -> int array -> (string * string * quality) list
(** The non-[Good] options selected by this vector — used by the
    benchmark's discrepancy-cause breakdown. *)

val reference : t -> string
(** The canonical reference solution: option 0 of every choice point. *)

val sample_indices : t -> n:int -> seed:int -> int list
(** Deterministic LCG sample of [n] indices; returns the whole space when
    [n >= size]. *)

val validate : t -> string list
(** Structural checks (option 0 must be [Good], arities match, labels
    distinct); empty = well-formed. *)
