(** A small forward dataflow framework over the Java-subset AST.

    The walker visits every expression and declarator of a statement
    list exactly once, threading an abstract state through in execution
    order and merging at control-flow joins with the domain's [join]:

    - [if]/[else]: both branches from the state after the condition,
      joined afterwards ([else] absent behaves like a no-op branch);
    - [while]/[for]: join of zero iterations and one iteration — the
      single-iteration reading the EPDG construction also uses;
    - [do]/[while]: the body runs at least once;
    - [switch]: cases fall through (each case entry is the join of the
      switch entry and the previous case's exit); the exit is the join
      of every case exit, plus the entry when there is no [default].

    [break]/[continue]/[return] pass the state through unchanged — the
    framework deliberately does not track abrupt-exit states, which is
    precise enough for the intraprocedural passes built on it. *)

module Forward (D : sig
  type t

  val join : t -> t -> t
end) : sig
  type hooks = {
    expr : D.t -> Jfeed_java.Ast.stmt -> Jfeed_java.Ast.expr -> D.t;
        (** called on every expression, with the enclosing statement *)
    decl : D.t -> Jfeed_java.Ast.stmt -> Jfeed_java.Ast.var_decl -> D.t;
        (** called on every declarator (its initializer is NOT walked by
            the framework — the hook decides) *)
  }

  val stmt : hooks -> D.t -> Jfeed_java.Ast.stmt -> D.t
  val stmts : hooks -> D.t -> Jfeed_java.Ast.stmt list -> D.t
end

(** {2 Normal-completion analysis}

    Shared by the unreachable-code and missing-return passes: can a
    statement (or statement sequence) complete normally, i.e. fall
    through to whatever follows it?  Follows JLS §14.22 on the subset,
    with loops over non-constant conditions always assumed able to
    complete. *)

val completes : Jfeed_java.Ast.stmt -> bool
val seq_completes : Jfeed_java.Ast.stmt list -> bool
