(** Compiled match plans.

    The backtracking matcher used to decide its join order at match time
    — every extension step re-ranked the unbound pattern nodes and
    re-scanned the pattern's edge list for consistency checks.  A plan
    hoists everything that depends only on the {e pattern} to bundle-load
    time ({!compile}, memoized per pattern by {!of_pattern}), and
    everything that additionally depends only on the {e target graph's
    index sizes} to one cheap pass per (pattern, graph) search
    ({!steps}):

    - a {b fingerprint prefilter} ({!prefilter}): the pattern's node-type
      multiset must fit inside the graph's type index sizes, the pattern
      may not have more edges than the graph, and the pattern's degree
      multiset must be dominated by the graph's — all necessary
      conditions for an embedding to exist, checked in O(types + nodes)
      before any search;
    - a {b join order} chosen by selectivity: the root is the pattern
      node with the fewest candidates (rarest node type in the target,
      per {!Jfeed_pdg.Epdg.count_of_type}); each extension prefers nodes
      adjacent to already-planned ones (their edge checks prune
      immediately), then the fewest candidates, with a static tie-break
      on pattern degree;
    - a {b precomputed incident-edge check list} per step: exactly the
      pattern edges from the step's node to already-bound nodes, with
      direction and edge type resolved at plan time — the search
      validates each candidate with [mem_edge] lookups only, no edge
      rescan.

    Process-wide counters ({!searches}, {!prefilter_rejects},
    {!steps_spent}) feed the serve metrics exposition; per-pattern
    [plan.prefilter_reject:<id>] / [plan.steps:<id>] trace counters feed
    [--trace] summaries. *)

module Epdg := Jfeed_pdg.Epdg

type check = {
  c_other : int;
      (** pattern node index of the bound end — the search reads its
          image straight out of the assignment array ι *)
  c_outgoing : bool;
      (** [true]: pattern edge runs new node → bound node, so the graph
          must have candidate → image; [false]: the reverse *)
  c_ty : Epdg.edge_type;
}

type t
(** A compiled pattern: static selectivity data, degree multiset,
    per-node incident edges and pre-extracted template variables. *)

val compile : Pattern.t -> t

val of_pattern : Pattern.t -> t
(** Memoized {!compile}.  The memo is per-domain (no locks on the match
    path); {!Jfeed_kb.Bundles} pre-compiles every shipped pattern at
    bundle load, so on the main domain this is a lookup. *)

val template_vars : t -> int -> string list
(** The exact template's variables for a pattern node, extracted once at
    compile time (the search used to recompute them at every extension
    step). *)

val prefilter : t -> Epdg.t -> bool
(** [false] means no embedding of the pattern can exist in the graph —
    sound to skip the search entirely.  [true] promises nothing. *)

type step = {
  s_u : int;  (** pattern node index bound at this step *)
  s_checks : check list;
      (** edges between [s_u] and nodes bound by earlier steps *)
  s_cands : Jfeed_graph.Digraph.node list;
      (** candidate graph nodes (the type index, insertion order) *)
}

val steps : t -> Epdg.t -> step array
(** The selectivity join order against one target graph, check lists
    resolved.  O(n² · d) in the (tiny) pattern size, once per search. *)

(** {2 Process-wide counters}

    Monotone atomics, safe under parallel batch domains; read by the
    serve [metrics] exposition. *)

val searches : unit -> int
(** Plan-driven searches started (prefilter rejections included). *)

val prefilter_rejects : unit -> int
(** Searches the fingerprint prefilter answered without backtracking. *)

val steps_spent : unit -> int
(** Total candidate-extension steps taken by plan-driven searches. *)

val note_search : unit -> unit
val note_reject : unit -> unit
val note_steps : int -> unit
(** Counter hooks for {!Matcher}. *)
