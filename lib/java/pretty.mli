(** Printing for the Java subset.

    {!expr} produces the {e canonical rendering} the pattern templates of
    the knowledge base match against: deterministic token spacing (one
    space around binary and assignment operators, none around unary and
    postfix operators), and the minimal parentheses needed to re-parse to
    the same tree.  [Parser.parse_expression (expr e) = e]. *)

val expr : Ast.expr -> string

val stmt : ?indent:int -> Ast.stmt -> string
(** Multi-line statement rendering, 4-space indentation. *)

val meth : ?indent:int -> Ast.meth -> string

val program : Ast.program -> string
(** All methods, blank-line separated. *)
