(** Extended program dependence graphs (paper §III-A).

    Nodes carry a type from {!node_type} and the Java expression denoting
    the operation they perform (Definition 1); edges are control or data
    dependences (Definition 2).

    Construction follows the paper's conventions exactly (see DESIGN.md §4):
    - [Ctrl] edges go from a [Cond] node to the nodes whose execution its
      truth *directly* controls — only the innermost controlling condition,
      so the transitive [Ctrl] edges the paper removes are never created;
    - [Data] edges are def-use chains over a single-iteration reading of
      the program: loop bodies execute exactly once (no back edges, no
      zero-iteration bypass), the body of an [if] without [else] is assumed
      to execute, and [if]/[else] branches merge by union. *)

type node_type = Assign | Break | Call | Cond | Decl | Return

type edge_type = Ctrl | Data

type node_info = {
  n_type : node_type;
  n_expr : Jfeed_java.Ast.expr;  (** the operation's expression [c] *)
  n_text : string;  (** canonical rendering of [n_expr], cached *)
  n_vars : string list;
      (** [Ast.vars_of_expr n_expr], cached — the matcher's γ candidate
          pool for this node *)
}

type t = {
  graph : (node_info, edge_type) Jfeed_graph.Digraph.t;
  method_name : string;
  param_names : string list;
  uid : int;
      (** process-unique stamp, assigned at construction; memo caches key
          on it instead of hashing the whole graph (atomic counter, safe
          under parallel batch grading) *)
  by_type : Jfeed_graph.Digraph.node list array;
      (** node-type index, built once at construction — the matcher's
          candidate sets Φ.  Indexed by {!int_of_node_type}; read it
          through {!nodes_of_type}.  Invariant: for every type [ty],
          [nodes_of_type t ty] equals
          [Digraph.filter_nodes t.graph ~f:(fun _ i -> i.n_type = ty)],
          in the same (insertion) order. *)
  type_counts : int array;
      (** per-type node counts — [Array.map List.length by_type], cached
          so match-plan selectivity ranking is an array read; read it
          through {!count_of_type}. *)
  deg_desc : int array;
      (** every node's total (in + out) degree, sorted descending — the
          graph side of {!Jfeed_core.Plan}'s fingerprint prefilter. *)
}

val n_node_types : int

val int_of_node_type : node_type -> int
(** The type ordinal, in [0, n_node_types): the index of {!t.by_type}
    and {!t.type_counts}, and of {!Jfeed_core.Plan}'s per-type pattern
    needs, which its prefilter compares against [type_counts]. *)

val string_of_node_type : node_type -> string
val string_of_edge_type : edge_type -> string

val of_method : Jfeed_java.Ast.meth -> t
(** Build the extended program dependence graph of one method. *)

val of_program : Jfeed_java.Ast.program -> (string * t) list
(** One EPDG per method, keyed by method name, in source order. *)

val of_source : string -> (string * t) list
(** Parse a submission and build the EPDG of every method.  Raises
    {!Jfeed_java.Parser.Parse_error} / {!Jfeed_java.Lexer.Lex_error} on
    malformed input. *)

val nodes_of_type : t -> node_type -> Jfeed_graph.Digraph.node list
(** All nodes of the given type, in insertion order — an array lookup
    into the precomputed index, not an O(V) filter.  Agrees exactly with
    [Digraph.filter_nodes] on the type predicate (see {!t.by_type}). *)

val count_of_type : t -> node_type -> int
(** [List.length (nodes_of_type t ty)], precomputed. *)

val degrees_desc : t -> int array
(** Total degrees of all nodes, descending (see {!t.deg_desc}).  Callers
    must not mutate the returned array. *)

val node_text : t -> Jfeed_graph.Digraph.node -> string
val node_type : t -> Jfeed_graph.Digraph.node -> node_type
val node_expr : t -> Jfeed_graph.Digraph.node -> Jfeed_java.Ast.expr

val node_vars : t -> Jfeed_graph.Digraph.node -> string list
(** [Ast.vars_of_expr (node_expr t v)], precomputed at construction. *)

val to_dot : t -> string
(** Graphviz rendering: data edges solid, control edges dashed (Fig. 3). *)

val to_string : t -> string
(** Text dump: one line per node ([v3: Assign "i = 0"]) then one per edge. *)

val to_json : t -> string
(** One JSON object:
    [{"method":…,"params":[…],"nodes":[{"id":…,"type":…,"text":…},…],
    "edges":[{"src":…,"dst":…,"type":…},…]}] — node ids are the [v]
    numbers of {!to_string}/{!to_dot}, insertion order throughout. *)
