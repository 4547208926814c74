(** Directed multigraph with integer node identifiers, arbitrary node labels
    and arbitrary edge labels.

    This is the storage substrate for extended program dependence graphs and
    for pattern graphs (the paper uses JGraphT for the same purpose).  The
    structure is mutable: builders add nodes and edges imperatively, and the
    matching algorithms only read it. *)

type ('n, 'e) t

type node = int
(** Node identifier, dense from 0 in insertion order. *)

val create : unit -> ('n, 'e) t

val add_node : ('n, 'e) t -> 'n -> node
(** [add_node g label] inserts a fresh node and returns its identifier. *)

val add_edge : ('n, 'e) t -> node -> node -> 'e -> unit
(** [add_edge g src dst label] inserts an edge.  Parallel edges with
    different labels are allowed; inserting the exact same labelled edge
    twice is a no-op.  Raises [Invalid_argument] if either endpoint is not a
    node of [g]. *)

val node_count : ('n, 'e) t -> int
val edge_count : ('n, 'e) t -> int

val label : ('n, 'e) t -> node -> 'n
(** Raises [Invalid_argument] on an unknown node. *)

val set_label : ('n, 'e) t -> node -> 'n -> unit

val mem_edge : ('n, 'e) t -> node -> node -> 'e -> bool
(** Labelled-edge membership.  O(1): backed by a hash set maintained at
    insertion, not a scan of the adjacency list — this is the matcher's
    innermost consistency check. *)

val has_edge : ('n, 'e) t -> node -> node -> bool
(** Ignores the edge label.  O(1), same mechanism as {!mem_edge}. *)

val succ : ('n, 'e) t -> node -> (node * 'e) list
(** Outgoing neighbours with edge labels, in insertion order. *)

val pred : ('n, 'e) t -> node -> (node * 'e) list
(** Incoming neighbours with edge labels, in insertion order. *)

val out_degree : ('n, 'e) t -> node -> int
(** O(1): counters maintained by {!add_edge}, no adjacency-list walk. *)

val in_degree : ('n, 'e) t -> node -> int
(** O(1), same mechanism as {!out_degree}. *)

val nodes : ('n, 'e) t -> node list
(** All nodes in insertion order. *)

val edges : ('n, 'e) t -> (node * node * 'e) list

val fold_nodes : ('n, 'e) t -> init:'a -> f:('a -> node -> 'n -> 'a) -> 'a

val filter_nodes : ('n, 'e) t -> f:(node -> 'n -> bool) -> node list

val reachable : ('n, 'e) t -> node -> node list
(** Nodes reachable from the given node (including itself), depth-first
    preorder. *)

val topological_sort : ('n, 'e) t -> node list option
(** [None] when the graph has a cycle. *)

val transpose : ('n, 'e) t -> ('n, 'e) t

val map : ('n, 'e) t -> fn:('n -> 'm) -> fe:('e -> 'f) -> ('m, 'f) t
(** Structure-preserving relabelling; node identifiers are preserved. *)

(** One Graphviz attribute.  [Label] payloads are escaped by {!to_dot}
    (quotes, backslashes, raw newlines — the characters a student's
    string literal can smuggle into a node label); [Shape]/[Style] are
    bare identifiers; [Raw] is spliced verbatim for anything else. *)
type dot_attr =
  | Label of string
  | Shape of string
  | Style of string
  | Raw of string

val to_dot :
  ('n, 'e) t ->
  node_attrs:(node -> 'n -> dot_attr list) ->
  edge_attrs:('e -> dot_attr list) ->
  string
(** Graphviz rendering; [node_attrs]/[edge_attrs] return attribute lists
    such as [[Label "x = 0"; Shape "box"]].  Label text is escaped here —
    callers pass the raw label, never pre-escaped text, so
    string-literal-bearing submissions cannot produce invalid DOT. *)
