(** Compiled match plans — see plan.mli. *)

module G = Jfeed_graph.Digraph
module Epdg = Jfeed_pdg.Epdg

type check = { c_other : int; c_outgoing : bool; c_ty : Epdg.edge_type }

type t = {
  pattern : Pattern.t;
  n : int;
  n_edges : int;
  incident : (int * int * Epdg.edge_type) list array;
      (* pattern edges touching each node, both directions *)
  degree : int array;  (* incident-edge count per pattern node *)
  deg_desc : int array;  (* [degree] sorted descending *)
  type_need : int array;  (* typed pattern nodes per node-type ordinal *)
  vars_exact : string list array;  (* Template.vars of each exact template *)
}

let template_vars t u = t.vars_exact.(u)

let compile (p : Pattern.t) =
  let n = Array.length p.Pattern.nodes in
  let incident = Array.make (max 1 n) [] in
  List.iter
    (fun ((s, d, _) as e) ->
      incident.(s) <- e :: incident.(s);
      if d <> s then incident.(d) <- e :: incident.(d))
    p.Pattern.edges;
  let degree = Array.init (max 1 n) (fun u -> List.length incident.(u)) in
  let degree = if n = 0 then [||] else Array.sub degree 0 n in
  let deg_desc = Array.copy degree in
  Array.sort (fun a b -> compare b a) deg_desc;
  let type_need = Array.make Epdg.n_node_types 0 in
  Array.iter
    (fun (pn : Pattern.pnode) ->
      match pn.Pattern.pn_type with
      | None -> ()
      | Some ty ->
          let i = Epdg.int_of_node_type ty in
          type_need.(i) <- type_need.(i) + 1)
    p.Pattern.nodes;
  {
    pattern = p;
    n;
    n_edges = List.length p.Pattern.edges;
    incident;
    degree;
    deg_desc;
    type_need;
    vars_exact =
      Array.map
        (fun (pn : Pattern.pnode) ->
          Jfeed_exprmatch.Template.vars pn.Pattern.exact)
        p.Pattern.nodes;
  }

(* The necessary conditions an embedding's existence imposes on target
   index sizes, cheapest first.  Injectivity makes each one sound:
   - every typed pattern node needs its own same-type graph node;
   - every pattern edge maps to a distinct labelled graph edge;
   - the node with the k-th largest pattern degree needs a distinct
     graph node of at least that degree, so the k-th largest graph
     degree must dominate it (a Hall-style counting argument). *)
let prefilter t (epdg : Epdg.t) =
  let g = epdg.Epdg.graph in
  t.n <= G.node_count g
  && t.n_edges <= G.edge_count g
  && (let ok = ref true in
      Array.iteri
        (fun i need ->
          if need > epdg.Epdg.type_counts.(i) then ok := false)
        t.type_need;
      !ok)
  &&
  let gdeg = Epdg.degrees_desc epdg in
  let ok = ref true in
  Array.iteri
    (fun k d -> if d > gdeg.(k) then ok := false)
    t.deg_desc;
  !ok

type step = {
  s_u : int;
  s_checks : check list;
  s_cands : G.node list;
}

let steps_of_order t (epdg : Epdg.t) order =
  let g = epdg.Epdg.graph in
  let planned = Array.make (max 1 t.n) false in
  Array.map
    (fun u ->
      let checks =
        List.filter_map
          (fun (s, d, ty) ->
            if s = u && planned.(d) then
              Some { c_other = d; c_outgoing = true; c_ty = ty }
            else if d = u && planned.(s) then
              Some { c_other = s; c_outgoing = false; c_ty = ty }
            else None)
          t.incident.(u)
      in
      planned.(u) <- true;
      {
        s_u = u;
        s_checks = checks;
        s_cands =
          (match t.pattern.Pattern.nodes.(u).Pattern.pn_type with
          | None -> G.nodes g
          | Some ty -> Epdg.nodes_of_type epdg ty);
      })
    order

let steps t (epdg : Epdg.t) =
  let g = epdg.Epdg.graph in
  let cand_count u =
    match t.pattern.Pattern.nodes.(u).Pattern.pn_type with
    | None -> G.node_count g
    | Some ty -> Epdg.count_of_type epdg ty
  in
  let counts = Array.init t.n cand_count in
  let planned = Array.make t.n false in
  let order = Array.make t.n 0 in
  for k = 0 to t.n - 1 do
    (* Greedy: joinable first (edges to already-planned nodes prune a
       candidate immediately), then the fewest candidates (rarest node
       type in this target), then the static pattern degree, then the
       lowest index — a total, deterministic key. *)
    let best = ref (-1) and best_key = ref (min_int, min_int, min_int, 0) in
    for u = 0 to t.n - 1 do
      if not planned.(u) then begin
        let adjacency =
          List.fold_left
            (fun a (s, d, _) ->
              if (s = u && planned.(d)) || (d = u && planned.(s)) then a + 1
              else a)
            0 t.incident.(u)
        in
        let key = (adjacency, -counts.(u), t.degree.(u), -u) in
        if !best < 0 || key > !best_key then begin
          best := u;
          best_key := key
        end
      end
    done;
    let u = !best in
    order.(k) <- u;
    planned.(u) <- true
  done;
  steps_of_order t epdg order

(* ------------------------------------------------------------------ *)
(* Plan memo: compile once per pattern.  Per-domain (Domain.DLS) so the
   match path never takes a lock; Jfeed_kb.Bundles pre-compiles every
   shipped pattern at bundle load on the main domain, and a pool helper
   compiles each pattern it meets once per process, since helpers
   persist across Pool.map calls (compilation is O(pattern size), far
   below one search).  Keyed by pattern id with a physical-equality
   check, so distinct pattern values sharing an id (test fixtures) stay
   distinct. *)

let memo_key :
    (string, (Pattern.t * t) list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let of_pattern (p : Pattern.t) =
  let tbl = Domain.DLS.get memo_key in
  let entries =
    match Hashtbl.find_opt tbl p.Pattern.id with Some l -> l | None -> []
  in
  match List.find_opt (fun (p', _) -> p' == p) entries with
  | Some (_, plan) -> plan
  | None ->
      let plan = compile p in
      Hashtbl.replace tbl p.Pattern.id ((p, plan) :: entries);
      plan

(* ------------------------------------------------------------------ *)
(* Process-wide counters (serve metrics exposition). *)

let n_searches = Atomic.make 0
let n_rejects = Atomic.make 0
let n_steps = Atomic.make 0

let searches () = Atomic.get n_searches
let prefilter_rejects () = Atomic.get n_rejects
let steps_spent () = Atomic.get n_steps
let note_search () = Atomic.incr n_searches
let note_reject () = Atomic.incr n_rejects
let note_steps n = ignore (Atomic.fetch_and_add n_steps n)
