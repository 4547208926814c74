(** Forward dataflow over the AST + normal-completion analysis.  See
    dataflow.mli. *)

open Jfeed_java.Ast

module Forward (D : sig
  type t

  val join : t -> t -> t
end) =
struct
  type hooks = {
    expr : D.t -> stmt -> expr -> D.t;
    decl : D.t -> stmt -> var_decl -> D.t;
  }

  let rec stmt h st s =
    match s with
    | Sempty | Sbreak | Scontinue -> st
    | Sblock body -> stmts h st body
    | Sdecl ds -> List.fold_left (fun st d -> h.decl st s d) st ds
    | Sexpr e -> h.expr st s e
    | Sreturn (Some e) -> h.expr st s e
    | Sreturn None -> st
    | Sif (c, then_, else_) -> (
        let st = h.expr st s c in
        let st_t = stmt h st then_ in
        match else_ with
        | Some f -> D.join st_t (stmt h st f)
        | None -> D.join st_t st)
    | Swhile (c, body) ->
        (* zero iterations joined with one *)
        let st = h.expr st s c in
        D.join st (stmt h st body)
    | Sdo (body, c) ->
        (* the body runs at least once *)
        h.expr (stmt h st body) s c
    | Sfor (init, cond, update, body) ->
        let st =
          match init with
          | None -> st
          | Some (For_decl ds) ->
              List.fold_left (fun st d -> h.decl st s d) st ds
          | Some (For_exprs es) ->
              List.fold_left (fun st e -> h.expr st s e) st es
        in
        let st =
          match cond with Some c -> h.expr st s c | None -> st
        in
        let once =
          List.fold_left (fun st e -> h.expr st s e) (stmt h st body) update
        in
        D.join st once
    | Sswitch (scrut, cases) ->
        let entry = h.expr st s scrut in
        let has_default = List.exists (fun c -> c.case_label = None) cases in
        (* Cases fall through: each case starts from the join of the
           switch entry (jumped to directly) and the previous case's
           exit (fell through). *)
        let outs, _ =
          List.fold_left
            (fun (outs, prev) c ->
              let case_entry =
                match prev with
                | None -> entry
                | Some p -> D.join entry p
              in
              let case_entry =
                match c.case_label with
                | Some l -> h.expr case_entry s l
                | None -> case_entry
              in
              let out = stmts h case_entry c.case_body in
              (out :: outs, Some out))
            ([], None) cases
        in
        let seed = if has_default then None else Some entry in
        (match (outs, seed) with
        | [], _ -> entry
        | o :: os, None -> List.fold_left D.join o os
        | os, Some e -> List.fold_left D.join e os)

  and stmts h st body = List.fold_left (stmt h) st body
end

(* ------------------------------------------------------------------ *)
(* Normal completion (JLS §14.22 on the subset)                        *)

(* Does the statement contain a [break] that binds to the enclosing loop,
   one not nested inside an inner loop or [switch]? *)
let rec breaks_out = function
  | Sbreak -> true
  | Sblock b -> List.exists breaks_out b
  | Sif (_, t, f) ->
      breaks_out t || (match f with Some f -> breaks_out f | None -> false)
  | Sdecl _ | Sexpr _ | Sempty | Scontinue | Sreturn _ -> false
  (* a [break] inside an inner loop or switch binds there, not here *)
  | Swhile _ | Sdo _ | Sfor _ | Sswitch _ -> false

let rec completes = function
  | Sreturn _ | Sbreak | Scontinue -> false
  | Sblock b -> seq_completes b
  | Sif (_, t, Some f) -> completes t || completes f
  | Sif (_, _, None) -> true
  | Swhile (Bool_lit true, body) -> breaks_out body
  | Swhile _ -> true
  | Sfor (_, (None | Some (Bool_lit true)), _, body) -> breaks_out body
  | Sfor _ -> true
  | Sdo (body, _) -> completes body || breaks_out body
  | Sswitch _ -> true
  | Sdecl _ | Sexpr _ | Sempty -> true

and seq_completes = function
  | [] -> true
  | s :: rest -> completes s && seq_completes rest
