(** Structured diagnostics: what every analysis pass and the KB linter
    emit.

    A diagnostic names the pass that produced it, a severity, the method
    (or KB object) it is about, a source position when one is known
    ([line = 0] means "no position"), and a human-readable message. *)

type severity = Error | Warning

type t = {
  pass : string;  (** stable pass id, e.g. ["use-before-init"] *)
  severity : severity;
  meth : string;  (** enclosing method name; [""] when not applicable *)
  line : int;  (** 1-based; 0 = unknown *)
  col : int;  (** 1-based; 0 = unknown *)
  message : string;
}

val make :
  pass:string ->
  severity:severity ->
  ?meth:string ->
  ?pos:Jfeed_java.Srcmap.pos ->
  string ->
  t

val render : t -> string
(** [method:line:col: severity [pass] message] — the position and method
    segments are elided when unknown. *)

val to_json : t -> string
(** One object with keys [pass], [severity], [method], [line], [col],
    [message] — in that order, pinned by [test/cram/analyze.t]. *)

val compare : t -> t -> int
(** Stable order: method, then position, then pass, then message. *)
