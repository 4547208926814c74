open Jfeed_java

type node_type = Assign | Break | Call | Cond | Decl | Return
type edge_type = Ctrl | Data

type node_info = {
  n_type : node_type;
  n_expr : Ast.expr;
  n_text : string;
  n_vars : string list;
      (* [Ast.vars_of_expr n_expr], hoisted to construction: the matcher
         reads it once per surviving candidate instead of re-walking the
         expression *)
}

type t = {
  graph : (node_info, edge_type) Jfeed_graph.Digraph.t;
  method_name : string;
  param_names : string list;
  uid : int;
  by_type : Jfeed_graph.Digraph.node list array;
  type_counts : int array;
  deg_desc : int array;
}

module G = Jfeed_graph.Digraph

let n_node_types = 6

let int_of_node_type = function
  | Assign -> 0
  | Break -> 1
  | Call -> 2
  | Cond -> 3
  | Decl -> 4
  | Return -> 5

(* Graph identity for memo caches (e.g. the matcher's embedding cache):
   structural hashing of a whole EPDG would cost more than the search it
   is meant to save, so every constructed EPDG gets a process-unique
   stamp.  Atomic: EPDGs are built concurrently by the batch workers. *)
let uid_counter = Atomic.make 0

let build_type_index g =
  let acc = Array.make n_node_types [] in
  List.iter
    (fun v ->
      let i = int_of_node_type (G.label g v).n_type in
      acc.(i) <- v :: acc.(i))
    (G.nodes g);
  Array.map List.rev acc

let nodes_of_type t ty = t.by_type.(int_of_node_type ty)
let count_of_type t ty = t.type_counts.(int_of_node_type ty)
let degrees_desc t = t.deg_desc

(* Total (in + out) degree of every node, sorted descending — the graph
   side of the matcher's fingerprint prefilter.  O(V) at construction:
   the digraph maintains degree counters at edge insertion. *)
let build_deg_desc g =
  let a =
    Array.of_list
      (List.map (fun v -> G.out_degree g v + G.in_degree g v) (G.nodes g))
  in
  Array.sort (fun x y -> compare y x) a;
  a

let string_of_node_type = function
  | Assign -> "Assign"
  | Break -> "Break"
  | Call -> "Call"
  | Cond -> "Cond"
  | Decl -> "Decl"
  | Return -> "Return"

let string_of_edge_type = function Ctrl -> "Ctrl" | Data -> "Data"

(* Reaching definitions: variable -> set of defining nodes.  Sets are kept
   as sorted lists (they are tiny). *)
module Env = Map.Make (String)

let union_defs a b =
  List.sort_uniq compare (List.rev_append a b)

let env_union e1 e2 =
  Env.union (fun _ d1 d2 -> Some (union_defs d1 d2)) e1 e2

type builder = {
  g : (node_info, edge_type) G.t;
  mutable env : G.node list Env.t;
}

let mk_node b typ ~parent ?text expr =
  let text = match text with Some t -> t | None -> Pretty.expr expr in
  let v =
    G.add_node b.g
      { n_type = typ; n_expr = expr; n_text = text;
        n_vars = Ast.vars_of_expr expr }
  in
  (match parent with Some p -> G.add_edge b.g p v Ctrl | None -> ());
  v

(* Data edges from every reaching definition of every variable [node]
   reads. *)
let data_edges_for_reads b node expr =
  List.iter
    (fun x ->
      match Env.find_opt x b.env with
      | Some defs -> List.iter (fun d -> if d <> node then G.add_edge b.g d node Data) defs
      | None -> ())
    (Ast.read_vars expr)

(* Register the definitions an expression performs.  Plain assignments to a
   variable kill its previous definitions; array-element stores are weak
   updates (other elements survive). *)
let record_defs b node expr =
  let weak = Hashtbl.create 4 in
  let rec scan_lhs = function
    | Ast.Var _ -> ()
    | Ast.Index (base, _) ->
        let rec base_var = function
          | Ast.Var x -> Hashtbl.replace weak x ()
          | Ast.Index (e, _) | Ast.Field (e, _) -> base_var e
          | _ -> ()
        in
        base_var base
    | Ast.Field (e, _) -> scan_lhs e
    | _ -> ()
  in
  let rec find_stores = function
    | Ast.Assign (_, lhs, rhs) ->
        scan_lhs lhs;
        find_stores lhs;
        find_stores rhs
    | Ast.Incdec (_, e) ->
        scan_lhs e;
        find_stores e
    | Ast.Binary (_, e1, e2) | Ast.Index (e1, e2) ->
        find_stores e1;
        find_stores e2
    | Ast.Unary (_, e) | Ast.Cast (_, e) | Ast.Field (e, _) -> find_stores e
    | Ast.Call (recv, _, args) ->
        Option.iter find_stores recv;
        List.iter find_stores args
    | Ast.New (_, args) -> List.iter find_stores args
    | Ast.New_array (_, dims) -> List.iter find_stores dims
    | Ast.Array_lit elts -> List.iter find_stores elts
    | Ast.Ternary (c, t, f) ->
        find_stores c;
        find_stores t;
        find_stores f
    | Ast.Int_lit _ | Ast.Double_lit _ | Ast.Bool_lit _ | Ast.Char_lit _
    | Ast.Str_lit _ | Ast.Null_lit | Ast.Var _ ->
        ()
  in
  find_stores expr;
  List.iter
    (fun x ->
      if Hashtbl.mem weak x then
        let prev = Option.value ~default:[] (Env.find_opt x b.env) in
        b.env <- Env.add x (union_defs [ node ] prev) b.env
      else b.env <- Env.add x [ node ] b.env)
    (Ast.assigned_vars expr)

let is_call_stmt = function Ast.Call _ -> true | _ -> false

let rec walk_stmt b ~parent (s : Ast.stmt) =
  match s with
  | Ast.Sempty -> ()
  | Ast.Sblock body -> List.iter (walk_stmt b ~parent) body
  | Ast.Sdecl decls ->
      List.iter
        (fun (d : Ast.var_decl) ->
          match d.d_init with
          | None -> () (* no operation: defined at first assignment *)
          | Some init ->
              let expr = Ast.Assign (Set, Var d.d_name, init) in
              let v = mk_node b Assign ~parent expr in
              data_edges_for_reads b v expr;
              record_defs b v expr)
        decls
  | Ast.Sexpr e ->
      let typ = if is_call_stmt e then Call else Assign in
      let v = mk_node b typ ~parent e in
      data_edges_for_reads b v e;
      record_defs b v e
  | Ast.Sif (cond, then_, else_) -> (
      let c = mk_node b Cond ~parent cond in
      data_edges_for_reads b c cond;
      record_defs b c cond;
      let entry = b.env in
      walk_stmt b ~parent:(Some c) then_;
      let after_then = b.env in
      match else_ with
      | None ->
          (* No bypass edge: the branch is assumed to execute. *)
          b.env <- after_then
      | Some e ->
          b.env <- entry;
          walk_stmt b ~parent:(Some c) e;
          b.env <- env_union after_then b.env)
  | Ast.Swhile (cond, body) ->
      let c = mk_node b Cond ~parent cond in
      data_edges_for_reads b c cond;
      record_defs b c cond;
      walk_stmt b ~parent:(Some c) body
  | Ast.Sdo (body, cond) ->
      (* The body precedes the condition; the condition still controls the
         body's (re-)execution, so it is created first to be the control
         parent, but its data edges use the post-body environment. *)
      let c = mk_node b Cond ~parent cond in
      walk_stmt b ~parent:(Some c) body;
      data_edges_for_reads b c cond;
      record_defs b c cond
  | Ast.Sfor (init, cond, update, body) ->
      (match init with
      | None -> ()
      | Some (Ast.For_decl decls) -> walk_stmt b ~parent (Ast.Sdecl decls)
      | Some (Ast.For_exprs es) ->
          List.iter (fun e -> walk_stmt b ~parent (Ast.Sexpr e)) es);
      let c =
        match cond with
        | Some cond_expr ->
            let c = mk_node b Cond ~parent cond_expr in
            data_edges_for_reads b c cond_expr;
            record_defs b c cond_expr;
            Some c
        | None -> None
      in
      let inner = match c with Some _ -> c | None -> parent in
      walk_stmt b ~parent:inner body;
      List.iter (fun e -> walk_stmt b ~parent:inner (Ast.Sexpr e)) update
  | Ast.Sswitch (scrutinee, cases) ->
      let c = mk_node b Cond ~parent scrutinee in
      data_edges_for_reads b c scrutinee;
      record_defs b c scrutinee;
      let entry = b.env in
      let has_default = List.exists (fun k -> k.Ast.case_label = None) cases in
      let outs =
        List.map
          (fun (k : Ast.switch_case) ->
            b.env <- entry;
            List.iter (walk_stmt b ~parent:(Some c)) k.case_body;
            b.env)
          cases
      in
      let base = if has_default then [] else [ entry ] in
      b.env <-
        (match outs @ base with
        | [] -> entry
        | e :: rest -> List.fold_left env_union e rest)
  | Ast.Sbreak ->
      ignore (mk_node b Break ~parent ~text:"break" (Ast.Var "break"))
  | Ast.Scontinue ->
      (* The paper's node-type set has no Continue; it behaves like Break
         for dependence purposes. *)
      ignore (mk_node b Break ~parent ~text:"continue" (Ast.Var "continue"))
  | Ast.Sreturn e_opt ->
      let expr = match e_opt with Some e -> e | None -> Ast.Null_lit in
      let text =
        match e_opt with
        | Some e -> "return " ^ Pretty.expr e
        | None -> "return"
      in
      let v = mk_node b Return ~parent ~text expr in
      data_edges_for_reads b v expr

let of_method (m : Ast.meth) =
  let b = { g = G.create (); env = Env.empty } in
  List.iter
    (fun (p : Ast.param) ->
      let text = Ast.string_of_typ p.p_type ^ " " ^ p.p_name in
      let v = mk_node b Decl ~parent:None ~text (Ast.Var p.p_name) in
      b.env <- Env.add p.p_name [ v ] b.env)
    m.m_params;
  List.iter (walk_stmt b ~parent:None) m.m_body;
  let by_type = build_type_index b.g in
  {
    graph = b.g;
    method_name = m.m_name;
    param_names = List.map (fun (p : Ast.param) -> p.p_name) m.m_params;
    uid = Atomic.fetch_and_add uid_counter 1;
    by_type;
    type_counts = Array.map List.length by_type;
    deg_desc = build_deg_desc b.g;
  }

let of_program (p : Ast.program) =
  (* The EPDG-build stage of the grading pipeline; attrs record how big
     the dependence graphs came out, which is what drives matcher cost. *)
  let tr = Jfeed_trace.Trace.current () in
  Jfeed_trace.Trace.span tr "epdg" (fun () ->
      let graphs = List.map (fun m -> (m.Ast.m_name, of_method m)) p.methods in
      if Jfeed_trace.Trace.enabled tr then begin
        let nodes, edges =
          List.fold_left
            (fun (n, e) (_, g) ->
              (n + G.node_count g.graph, e + G.edge_count g.graph))
            (0, 0) graphs
        in
        Jfeed_trace.Trace.add_attr tr "methods"
          (string_of_int (List.length graphs));
        Jfeed_trace.Trace.add_attr tr "nodes" (string_of_int nodes);
        Jfeed_trace.Trace.add_attr tr "edges" (string_of_int edges)
      end;
      graphs)

let of_source src = of_program (Parser.parse_program src)

let node_text t v = (G.label t.graph v).n_text
let node_type t v = (G.label t.graph v).n_type
let node_expr t v = (G.label t.graph v).n_expr
let node_vars t v = (G.label t.graph v).n_vars

let to_dot t =
  (* Labels go in raw — [Digraph.to_dot] escapes quotes, backslashes and
     newlines, so the literal newline below renders as DOT's [\n] line
     break and hostile [n_text] cannot break out of the attribute. *)
  G.to_dot t.graph
    ~node_attrs:(fun v info ->
      [
        G.Label
          (Printf.sprintf "v%d: %s\n%s" v
             (string_of_node_type info.n_type)
             info.n_text);
        G.Shape "box";
      ])
    ~edge_attrs:(function
      | Data -> [ G.Style "solid"; G.Label "Data" ]
      | Ctrl -> [ G.Style "dashed"; G.Label "Ctrl" ])

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "method %s\n" t.method_name);
  List.iter
    (fun v ->
      let info = G.label t.graph v in
      Buffer.add_string buf
        (Printf.sprintf "  v%d: %-6s %s\n" v
           (string_of_node_type info.n_type)
           info.n_text))
    (G.nodes t.graph);
  List.iter
    (fun (s, d, e) ->
      Buffer.add_string buf
        (Printf.sprintf "  v%d -%s-> v%d\n" s (string_of_edge_type e) d))
    (G.edges t.graph);
  Buffer.contents buf

let to_json t =
  let esc = Jfeed_trace.Trace.json_escape in
  let nodes =
    List.map
      (fun v ->
        let info = G.label t.graph v in
        Printf.sprintf {|{"id":%d,"type":"%s","text":"%s"}|} v
          (string_of_node_type info.n_type)
          (esc info.n_text))
      (G.nodes t.graph)
  in
  let edges =
    List.map
      (fun (s, d, e) ->
        Printf.sprintf {|{"src":%d,"dst":%d,"type":"%s"}|} s d
          (string_of_edge_type e))
      (G.edges t.graph)
  in
  Printf.sprintf {|{"method":"%s","params":[%s],"nodes":[%s],"edges":[%s]}|}
    (esc t.method_name)
    (String.concat ","
       (List.map Jfeed_trace.Trace.json_string t.param_names))
    (String.concat "," nodes)
    (String.concat "," edges)
