(** Constraints correlating patterns (paper Definitions 8–10).

    Constraints are checked against the *stored embeddings* of the
    patterns they reference (Algorithm 2, step 2.2): a constraint holds
    when some combination of embeddings satisfies it. *)

type kind =
  | Equality of { pi : string; ui : int; pj : string; uj : int }
      (** ι_i(u_i) = ι_j(u_j) — two pattern nodes hit the same graph node
          (Definition 8). *)
  | Edge_exists of {
      pi : string;
      ui : int;
      pj : string;
      uj : int;
      edge : Jfeed_pdg.Epdg.edge_type;
    }
      (** (ι_i(u_i), ι_j(u_j), t_e) ∈ E (Definition 9). *)
  | Containment of {
      main : string;
      u : int;
      template : Jfeed_exprmatch.Template.t;
      support : string list;
    }
      (** the node matching [u] of [main] also matches [template] under
          the union of the main and supporting embeddings' variable
          mappings (Definition 10).  Patterns joined this way must use
          disjoint variable alphabets. *)

type t = {
  c_id : string;
  description : string;
  kind : kind;
  fb_ok : string;
  fb_fail : string;
}

val equality :
  id:string ->
  desc:string ->
  ?ok:string ->
  ?fail:string ->
  string * int ->
  string * int ->
  t

val edge :
  id:string ->
  desc:string ->
  ?ok:string ->
  ?fail:string ->
  string * int ->
  string * int ->
  Jfeed_pdg.Epdg.edge_type ->
  t

val containment :
  id:string ->
  desc:string ->
  ?ok:string ->
  ?fail:string ->
  string * int ->
  Jfeed_exprmatch.Template.t ->
  string list ->
  t

val referenced_patterns : t -> string list

val to_comment :
  t ->
  in_method:string ->
  Jfeed_pdg.Epdg.t ->
  (string -> Matcher.embedding list) ->
  pattern_ok:(string -> bool) ->
  Feedback.comment
(** Constraint feedback: [Not_expected] when any referenced pattern was
    not found as expected, otherwise [Correct]/[Incorrect] by whether the
    constraint holds. *)
