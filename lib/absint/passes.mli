(** Diagnostic passes over the interval abstract interpretation
    (tentpole of PR 9), plus the combined analysis driver the pipeline
    and CLI call.

    Five passes ride on one {!Engine.Make}{!Interval} fixpoint per
    method:

    - [div-by-zero] — a division/modulo whose divisor is the constant 0
      (error);
    - [array-out-of-bounds] — an index that is *definitely* outside the
      tracked array length: always negative, or provably at/past every
      possible length (error);
    - [constant-condition] — a guard that reads variables yet always
      decides the same way; an always-true loop guard with no
      [break]/[return] escape is flagged as a likely infinite loop
      (warning);
    - [unused-range] — a compound guard whose overall truth is open but
      one comparison leaf is already decided because a variable it reads
      is provably constant (warning);
    - [efficiency] — loop-bound inference assigns each method a
      polynomial degree (constant / linear-per-loop, composed across
      nesting); a submission whose degree exceeds the oracle solution's
      for the same-named method is flagged at the offending loop
      (warning).

    Every entry point is total: engine fuel exhaustion degrades to "no
    information", and a pass that raises reports one diagnostic of its
    own id (same discipline as {!Jfeed_analysis.Passes}). *)

open Jfeed_java
module Diagnostic = Jfeed_analysis.Diagnostic

module AI : module type of Engine.Make (Interval)
(** The interval instantiation all passes share (one fixpoint per
    method); exposed for the demo and the soundness tests. *)

val pass_ids : string list
(** The five abstract-interpretation pass ids, canonical order. *)

val all_pass_ids : string list
(** {!Jfeed_analysis.Passes.pass_ids} followed by {!pass_ids} — the ten
    ids [jfeed analyze --only/--except] validates against. *)

(** {1 Loop bounds and cost signatures} *)

type bound =
  | Bconst  (** trip count bounded by a compile-time constant *)
  | Blinear of string  (** linear in the named symbol, e.g. ["a.length"] *)
  | Bunknown

type cost = Known of int  (** polynomial degree *) | Unknown_cost

val method_cost : ?fuel:int -> Ast.meth -> cost * Ast.stmt option
(** Degree of the deepest classified loop nest and its outermost
    degree-raising loop (the witness the efficiency diagnostic points
    at).  Any unclassifiable loop makes the whole method
    [Unknown_cost]. *)

val method_degrees : ?fuel:int -> Ast.program -> (string * int) list
(** Per-method known degrees — computed once per oracle program and
    passed to {!analyze_program} as [oracle_degrees]. *)

val degree_str : int -> string
(** [0 → "O(1)"], [1 → "O(n)"], [d → "O(n^d)"]. *)

val bound_stats : ?fuel:int -> Ast.program -> int * int
(** [(loops, classified)] over a program — the bench gate's
    bound-inference hit rate. *)

(** {1 Drivers} *)

val analyze_method :
  ?srcmap:Srcmap.t ->
  ?fuel:int ->
  ?oracle_degrees:(string * int) list ->
  Ast.meth ->
  Diagnostic.t list
(** The five abstract-interpretation passes only (one engine run). *)

val analyze_program :
  ?srcmap:Srcmap.t ->
  ?fuel:int ->
  ?oracle:Ast.program ->
  ?oracle_degrees:(string * int) list ->
  Ast.program ->
  Diagnostic.t list
(** The combined analysis: the five {!Jfeed_analysis.Passes} passes plus
    the five passes here, overlap-merged (a [suspicious-loop] and a
    [constant-condition] diagnostic on the same guard collapse into one)
    and sorted by {!Diagnostic.compare}.  [oracle_degrees] wins over
    [oracle] when both are given. *)

val analyze_source :
  ?fuel:int ->
  ?oracle:Ast.program ->
  ?oracle_degrees:(string * int) list ->
  string ->
  Diagnostic.t list
(** Parse with positions and run {!analyze_program}; total on parse
    failures (one [parse] diagnostic). *)

val count_by_pass : Diagnostic.t list -> (string * int) list
(** Counts keyed by {!all_pass_ids} (all ten present, zeros included),
    other passes appended in first-seen order. *)
