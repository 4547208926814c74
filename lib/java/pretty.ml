(** Printing for the Java subset.

    [expr] produces the *canonical rendering* that the pattern templates of
    the knowledge base match against: deterministic token spacing (one
    space around binary and assignment operators, none around unary and
    postfix operators), and the minimal parentheses needed to re-parse to
    the same tree.  [parse (expr e)] round-trips. *)

open Ast

let escape_char = function
  | '\n' -> "\\n"
  | '\t' -> "\\t"
  | '\r' -> "\\r"
  | '\\' -> "\\\\"
  | '\'' -> "\\'"
  | '"' -> "\\\""
  | c -> String.make 1 c

let string_literal s =
  "\"" ^ String.concat "" (List.map escape_char (List.init (String.length s) (String.get s))) ^ "\""

(* Java-style: integral doubles render with a trailing [.0]. *)
let double_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

(* Printing precedence; higher binds tighter. *)
let prec_binary = function
  | Or -> 3
  | And -> 4
  | Bit_or -> 5
  | Bit_xor -> 6
  | Bit_and -> 7
  | Eq | Ne -> 8
  | Lt | Le | Gt | Ge -> 9
  | Shl | Shr | Ushr -> 10
  | Add | Sub -> 11
  | Mul | Div | Mod -> 12

let prec = function
  | Assign _ -> 1
  | Ternary _ -> 2
  | Binary (op, _, _) -> prec_binary op
  | Unary _ | Incdec ((Pre_incr | Pre_decr), _) | Cast _ -> 14
  | _ -> 16 (* literals, variables, postfix forms *)

let rec render e = fst (render_prec e)

and render_prec e = (go e, prec e)

and child ~parent ~strict e =
  let s, p = render_prec e in
  if p < parent || (strict && p = parent) then "(" ^ s ^ ")" else s

and go = function
  | Int_lit n -> string_of_int n
  | Double_lit f -> double_literal f
  | Bool_lit b -> if b then "true" else "false"
  | Char_lit c -> "'" ^ escape_char c ^ "'"
  | Str_lit s -> string_literal s
  | Null_lit -> "null"
  | Var x -> x
  | Field (e, f) -> child ~parent:16 ~strict:false e ^ "." ^ f
  | Index (e, i) -> child ~parent:16 ~strict:false e ^ "[" ^ render i ^ "]"
  | Call (recv, name, args) ->
      let prefix =
        match recv with
        | None -> ""
        | Some r -> child ~parent:16 ~strict:false r ^ "."
      in
      prefix ^ name ^ "(" ^ String.concat ", " (List.map render args) ^ ")"
  | New (t, args) ->
      "new " ^ string_of_typ t ^ "("
      ^ String.concat ", " (List.map render args)
      ^ ")"
  | New_array (t, dims) ->
      "new " ^ string_of_typ t
      ^ String.concat "" (List.map (fun d -> "[" ^ render d ^ "]") dims)
  | Array_lit elts -> "{" ^ String.concat ", " (List.map render elts) ^ "}"
  | Unary (op, e) ->
      (* Guard against token gluing: [-(-x)] must not render as [--x]
         (which lexes as a decrement); same for [+]. *)
      let body = child ~parent:14 ~strict:false e in
      let op_s = string_of_unop op in
      if String.length body > 0 && body.[0] = op_s.[0] then
        op_s ^ "(" ^ render e ^ ")"
      else op_s ^ body
  | Incdec (Pre_incr, e) -> "++" ^ child ~parent:14 ~strict:false e
  | Incdec (Pre_decr, e) -> "--" ^ child ~parent:14 ~strict:false e
  | Incdec (Post_incr, e) -> child ~parent:16 ~strict:false e ^ "++"
  | Incdec (Post_decr, e) -> child ~parent:16 ~strict:false e ^ "--"
  | Binary (op, l, r) ->
      let p = prec_binary op in
      child ~parent:p ~strict:false l
      ^ " " ^ string_of_binop op ^ " "
      ^ child ~parent:p ~strict:true r
  | Assign (op, lhs, rhs) ->
      child ~parent:2 ~strict:false lhs
      ^ " " ^ string_of_assign_op op ^ " "
      ^ child ~parent:1 ~strict:false rhs
  | Ternary (c, t, f) ->
      child ~parent:3 ~strict:false c ^ " ? " ^ render t ^ " : "
      ^ child ~parent:2 ~strict:false f
  | Cast (t, e) -> "(" ^ string_of_typ t ^ ") " ^ child ~parent:14 ~strict:false e

let expr = render

(* ------------------------------------------------------------------ *)
(* Statements / programs, with indentation                             *)

(* Does the statement's rightmost spine end in an if without an else (so
   a following [else] keyword would be captured by it)? *)
let rec ends_dangling = function
  | Sif (_, _, None) -> true
  | Sif (_, _, Some e) -> ends_dangling e
  | Swhile (_, b) | Sfor (_, _, _, b) -> ends_dangling b
  | Sdo _ | Sblock _ | Sswitch _ | Sempty | Sexpr _ | Sdecl _ | Sbreak
  | Scontinue | Sreturn _ ->
      false

let rec stmt_lines indent s =
  let pad = String.make indent ' ' in
  match s with
  | Sempty -> [ pad ^ ";" ]
  | Sexpr e -> [ pad ^ expr e ^ ";" ]
  | Sdecl decls -> [ pad ^ decl_line decls ]
  | Sbreak -> [ pad ^ "break;" ]
  | Scontinue -> [ pad ^ "continue;" ]
  | Sreturn None -> [ pad ^ "return;" ]
  | Sreturn (Some e) -> [ pad ^ "return " ^ expr e ^ ";" ]
  | Sblock body ->
      (pad ^ "{")
      :: List.concat_map (stmt_lines (indent + 4)) body
      @ [ pad ^ "}" ]
  | Sif (cond, then_, else_) -> (
      let head = pad ^ "if (" ^ expr cond ^ ")" in
      match else_ with
      | None -> head :: nested indent then_
      | Some e ->
          (* Dangling-else protection: when the then-branch ends in an
             else-less [if], an unbraced rendering would re-attach this
             [else] to the inner [if] and change the semantics. *)
          let then_stmt =
            if ends_dangling then_ then Sblock [ then_ ] else then_
          in
          (head :: nested indent then_stmt)
          @ ((pad ^ "else") :: nested indent e))
  | Swhile (cond, body) ->
      (pad ^ "while (" ^ expr cond ^ ")") :: nested indent body
  | Sdo (body, cond) ->
      (pad ^ "do") :: nested indent body @ [ pad ^ "while (" ^ expr cond ^ ");" ]
  | Sfor (init, cond, update, body) ->
      let init_s =
        match init with
        | None -> ""
        | Some (For_decl decls) ->
            let line = decl_line decls in
            String.sub line 0 (String.length line - 1)
        | Some (For_exprs es) -> String.concat ", " (List.map expr es)
      in
      let cond_s = match cond with None -> "" | Some c -> expr c in
      let upd_s = String.concat ", " (List.map expr update) in
      (pad ^ Printf.sprintf "for (%s; %s; %s)" init_s cond_s upd_s)
      :: nested indent body
  | Sswitch (scrutinee, cases) ->
      let case_lines c =
        let label =
          match c.case_label with
          | Some e -> pad ^ "case " ^ expr e ^ ":"
          | None -> pad ^ "default:"
        in
        label :: List.concat_map (stmt_lines (indent + 4)) c.case_body
      in
      ((pad ^ "switch (" ^ expr scrutinee ^ ") {")
      :: List.concat_map case_lines cases)
      @ [ pad ^ "}" ]

and nested indent s =
  match s with
  | Sblock _ -> stmt_lines indent s
  | _ -> stmt_lines (indent + 4) s

and decl_line decls =
  match decls with
  | [] -> ";"
  | { d_type; _ } :: _ ->
      let base =
        let rec strip = function Tarray t -> strip t | t -> t in
        strip d_type
      in
      let declarator d =
        let rec suffix = function Tarray t -> suffix t ^ "[]" | _ -> "" in
        d.d_name ^ suffix d.d_type
        ^ match d.d_init with None -> "" | Some e -> " = " ^ expr e
      in
      (* First declarator carries the array suffix in the base type when all
         declarators share it (the common case [int[] a = ...]). *)
      let all_same = List.for_all (fun d -> d.d_type = d_type) decls in
      if all_same then
        string_of_typ d_type ^ " "
        ^ String.concat ", "
            (List.map
               (fun d ->
                 d.d_name
                 ^ match d.d_init with None -> "" | Some e -> " = " ^ expr e)
               decls)
        ^ ";"
      else
        string_of_typ base ^ " " ^ String.concat ", " (List.map declarator decls)
        ^ ";"

let stmt ?(indent = 0) s = String.concat "\n" (stmt_lines indent s)

let meth ?(indent = 0) m =
  let pad = String.make indent ' ' in
  let params =
    String.concat ", "
      (List.map (fun p -> string_of_typ p.p_type ^ " " ^ p.p_name) m.m_params)
  in
  let head =
    Printf.sprintf "%s%s %s(%s) {" pad (string_of_typ m.m_ret) m.m_name params
  in
  String.concat "\n"
    ((head :: List.concat_map (stmt_lines (indent + 4)) m.m_body)
    @ [ pad ^ "}" ])

let program p = String.concat "\n\n" (List.map (meth ?indent:None) p.methods)
