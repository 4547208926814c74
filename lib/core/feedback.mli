(** Feedback comments and the cost function Λ (paper §V, equation 3). *)

type verdict =
  | Correct  (** λ = 1 *)
  | Incorrect  (** λ = 0.5 — recognized with problems *)
  | Not_expected  (** λ = 0 — missing, or found a wrong number of times *)

type comment = {
  about : [ `Pattern of string | `Constraint of string ];
  in_method : string;  (** submission method the comment refers to *)
  verdict : verdict;
  messages : string list;  (** instantiated natural-language feedback *)
}

val lambda : verdict -> float
(** λ of equation 3. *)

val score : comment list -> float
(** Λ(B) — guides the best-effort choice among method combinations. *)

val of_pattern :
  in_method:string ->
  Pattern.t ->
  expected:int ->
  Matcher.embedding list ->
  comment
(** ProvideFeedback (Algorithm 2, line 15).  [expected] is the occurrence
    count t̄(q, p); [expected = 0] encodes a "bad pattern" the student
    must avoid.  Occurrence count ≠ t̄ yields [Not_expected]; otherwise
    the verdict is [Correct] iff every occurrence is fully exact. *)

val render : comment -> string
(** Human-readable rendering of one comment. *)

val comment_to_json : comment -> string

val to_json : comment list -> string
(** The whole feedback set as a JSON document
    ([{"score":…,"max":…,"comments":[…]}]) for LMS integration. *)
