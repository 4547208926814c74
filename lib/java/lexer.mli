(** Hand-written lexer for the Java subset: identifiers, keywords,
    int/double/char/string literals (with escapes and type suffixes),
    maximal-munch punctuators, and [//] / [/* */] comments. *)

type token =
  | Ident of string
  | Keyword of string
  | Int_literal of int
  | Double_literal of float
  | String_literal of string
  | Char_literal of char
  | Punct of string
  | Eof

type located = { tok : token; line : int; col : int }

exception Lex_error of string * int * int
(** message, line, column (1-based) *)

val tokenize : string -> located list
(** Tokenize a whole source string; the result always ends with [Eof].
    Raises {!Lex_error} on malformed input. *)

val string_of_token : token -> string
(** For diagnostics. *)
