type node = int

type ('n, 'e) t = {
  mutable labels : 'n array;
  mutable size : int;
  succ : (node, (node * 'e) list ref) Hashtbl.t;
  pred : (node, (node * 'e) list ref) Hashtbl.t;
  edge_set : (node * node * 'e, unit) Hashtbl.t;
      (* labelled-edge membership, O(1) [mem_edge] *)
  pair_set : (node * node, int) Hashtbl.t;
      (* parallel-edge count per (src, dst), O(1) [has_edge] *)
  mutable out_deg : int array;  (* maintained counters, indexed by node *)
  mutable in_deg : int array;
  mutable edge_count : int;
}

let create () =
  {
    labels = [||];
    size = 0;
    succ = Hashtbl.create 16;
    pred = Hashtbl.create 16;
    edge_set = Hashtbl.create 32;
    pair_set = Hashtbl.create 32;
    out_deg = [||];
    in_deg = [||];
    edge_count = 0;
  }

let node_count g = g.size
let edge_count g = g.edge_count
let mem_node g v = v >= 0 && v < g.size

let check_node g v =
  if not (mem_node g v) then
    invalid_arg (Printf.sprintf "Digraph: unknown node %d" v)

let grow_int_array a cap' =
  let fresh = Array.make cap' 0 in
  Array.blit a 0 fresh 0 (Array.length a);
  fresh

let grow g =
  let cap = Array.length g.labels in
  if g.size >= cap then begin
    let cap' = max 8 (2 * cap) in
    let fresh = Array.make cap' g.labels.(0) in
    Array.blit g.labels 0 fresh 0 g.size;
    g.labels <- fresh;
    g.out_deg <- grow_int_array g.out_deg cap';
    g.in_deg <- grow_int_array g.in_deg cap'
  end

let add_node g lbl =
  let v = g.size in
  if Array.length g.labels = 0 then begin
    g.labels <- Array.make 8 lbl;
    g.out_deg <- Array.make 8 0;
    g.in_deg <- Array.make 8 0
  end
  else grow g;
  g.labels.(v) <- lbl;
  g.size <- g.size + 1;
  v

let label g v =
  check_node g v;
  g.labels.(v)

let set_label g v lbl =
  check_node g v;
  g.labels.(v) <- lbl

let adj tbl v = match Hashtbl.find_opt tbl v with Some r -> !r | None -> []

let push tbl v entry =
  match Hashtbl.find_opt tbl v with
  | Some r -> r := entry :: !r
  | None -> Hashtbl.add tbl v (ref [ entry ])

let mem_edge g s t e = Hashtbl.mem g.edge_set (s, t, e)
let has_edge g s t = Hashtbl.mem g.pair_set (s, t)

let add_edge g s t e =
  check_node g s;
  check_node g t;
  if not (mem_edge g s t e) then begin
    push g.succ s (t, e);
    push g.pred t (s, e);
    Hashtbl.add g.edge_set (s, t, e) ();
    Hashtbl.replace g.pair_set (s, t)
      (1 + Option.value ~default:0 (Hashtbl.find_opt g.pair_set (s, t)));
    g.out_deg.(s) <- g.out_deg.(s) + 1;
    g.in_deg.(t) <- g.in_deg.(t) + 1;
    g.edge_count <- g.edge_count + 1
  end

let succ g v =
  check_node g v;
  List.rev (adj g.succ v)

let pred g v =
  check_node g v;
  List.rev (adj g.pred v)

let out_degree g v =
  check_node g v;
  g.out_deg.(v)

let in_degree g v =
  check_node g v;
  g.in_deg.(v)
let nodes g = List.init g.size Fun.id

let edges g =
  List.concat_map (fun s -> List.map (fun (t, e) -> (s, t, e)) (succ g s)) (nodes g)

let fold_nodes g ~init ~f =
  List.fold_left (fun acc v -> f acc v g.labels.(v)) init (nodes g)

let filter_nodes g ~f = List.filter (fun v -> f v g.labels.(v)) (nodes g)

let reachable g root =
  check_node g root;
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      order := v :: !order;
      List.iter (fun (w, _) -> visit w) (succ g v)
    end
  in
  visit root;
  List.rev !order

let topological_sort g =
  let indeg = Array.make (max 1 g.size) 0 in
  List.iter (fun (_, t, _) -> indeg.(t) <- indeg.(t) + 1) (edges g);
  let queue = Queue.create () in
  List.iter (fun v -> if indeg.(v) = 0 then Queue.add v queue) (nodes g);
  let order = ref [] in
  let emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr emitted;
    List.iter
      (fun (w, _) ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      (succ g v)
  done;
  if !emitted = g.size then Some (List.rev !order) else None

let map g ~fn ~fe =
  let g' = create () in
  List.iter (fun v -> ignore (add_node g' (fn (label g v)))) (nodes g);
  List.iter (fun (s, t, e) -> add_edge g' s t (fe e)) (edges g);
  g'

let transpose g =
  let g' = create () in
  List.iter (fun v -> ignore (add_node g' (label g v))) (nodes g);
  List.iter (fun (s, t, e) -> add_edge g' t s e) (edges g);
  g'

type dot_attr =
  | Label of string
  | Shape of string
  | Style of string
  | Raw of string

let dot_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | _ -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_attrs attrs =
  String.concat ", "
    (List.map
       (function
         | Label s -> Printf.sprintf "label=\"%s\"" (dot_escape s)
         | Shape s -> "shape=" ^ s
         | Style s -> "style=" ^ s
         | Raw s -> s)
       attrs)

let to_dot g ~node_attrs ~edge_attrs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph g {\n";
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [%s];\n" v (render_attrs (node_attrs v (label g v)))))
    (nodes g);
  List.iter
    (fun (s, t, e) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [%s];\n" s t (render_attrs (edge_attrs e))))
    (edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
