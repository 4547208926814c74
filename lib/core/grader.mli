(** Submission matching — the paper's Algorithm 2.

    A grading specification lists the *expected methods* Q of an
    assignment; each expected method carries the patterns that apply to
    it (with their expected occurrence counts t̄) and the constraints
    that correlate those patterns.  Grading tries every injective
    combination of expected methods with the submission's methods and
    keeps the combination whose feedback maximizes the cost function Λ —
    the combination assumed to reflect the student's intent. *)

type method_spec = {
  q_name : string;  (** expected method name (documentation / header hint) *)
  q_patterns : (Pattern.t * int) list;
      (** p̄(q) with occurrence counts t̄; t̄ = 0 is a bad pattern *)
  q_constraints : Constr.t list;  (** c̄(q) *)
  q_variants : (string * Pattern.t list) list;
      (** §VII future work — the pattern hierarchy: alternatives that
          realize the same semantics as a primary pattern (keyed by its
          id), consulted only with [~use_variants:true].  A variant's
          node indices must align with the primary's. *)
}

type spec = {
  a_id : string;
  a_title : string;
  a_methods : method_spec list;
  enforce_headers : bool;
      (** when set, an expected method may only be paired with a
          submission method of the same name (the paper's "common
          practice" remark). *)
}

type truncation =
  | Matcher_exhausted of string
      (** the embedding search for this pattern id was cut short by the
          fuel budget or the {!Matcher.max_embeddings} backstop *)
  | Pairing_exhausted
      (** the combination search stopped before trying every pairing *)

type result = {
  comments : Feedback.comment list;
  score : float;  (** Λ of [comments] *)
  pairing : (string * string option) list;
      (** chosen combination: expected method → submission method;
          [None] when the submission lacks a method to pair *)
  truncations : truncation list;
      (** budget cuts incurred while producing this result, in first-hit
          order; empty = the full search ran and the result is exact *)
}

val missing_comments : method_spec -> Feedback.comment list
(** The [Not_expected] comment set of an expected method paired with no
    submission method — the paper's "does not adhere to the
    specification" case.  Exposed for degraded-mode pipelines that must
    report on methods they could not grade. *)

val grade :
  ?budget:Jfeed_budget.Budget.t ->
  ?normalize:bool ->
  ?use_variants:bool ->
  ?inline_helpers:bool ->
  spec ->
  Jfeed_java.Ast.program ->
  result
(** Grade a parsed submission.  [?normalize] (default off) applies
    {!Jfeed_java.Normalize.flip_negated_else} first; [?use_variants]
    (default off) consults the pattern hierarchy when a primary pattern
    does not occur the expected number of times; [?inline_helpers]
    (default off) inlines student-invented helper methods not among the
    expected methods ({!Jfeed_java.Inline}).  All three are the paper's
    §VII future-work extensions; the defaults reproduce the published
    system.

    [?budget] bounds the work: the embedding search spends
    {!Jfeed_budget.Budget.Matcher} fuel, the lazily-enumerated pairing
    search spends {!Jfeed_budget.Budget.Pairing} fuel, and every cut is
    reported in the result's [truncations] — a starved budget degrades
    the answer, it never crashes or silently drops work.  At least one
    combination is always evaluated, so a result always exists. *)

val grade_source :
  ?budget:Jfeed_budget.Budget.t ->
  ?normalize:bool ->
  ?use_variants:bool ->
  ?inline_helpers:bool ->
  spec ->
  string ->
  (result, string) Result.t
(** Parse then grade; [Error] carries a human-readable parse
    diagnostic. *)
