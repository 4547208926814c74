(** A simplified reimplementation of AutoGrader's repair search (Singh,
    Gulwani, Solar-Lezama [33], built on Sketch [34]) for the paper's
    §VI-C comparison: an explicit breadth-first search over single-site
    error-model rule applications, checking functional equivalence with
    the reference on bounded inputs.  Exhibits the exponential repair-
    depth growth behind the paper's "degrades considerably after four or
    more repairs". *)

type rule = { name : string; rewrite : Jfeed_java.Ast.expr -> Jfeed_java.Ast.expr option }

type result = {
  repairs : int;  (** rules applied to reach equivalence *)
  applied : string list;  (** rule names — AutoGrader's "feedback" *)
  explored : int;  (** candidate programs checked (the cost) *)
}

val repair :
  suite:Jfeed_ftest.Runner.suite ->
  expected:string list ->
  max_depth:int ->
  Jfeed_java.Ast.program ->
  result option
(** [None] when no rule combination within [max_depth] makes the
    submission pass the suite. *)
