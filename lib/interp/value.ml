(** Runtime values of the Java-subset interpreter.

    Integers use Java [int] semantics: 32-bit two's-complement wrap-around
    (student factorial/Fibonacci submissions overflow exactly like they
    would on the JVM, and the functional tests must agree with that). *)

type t =
  | Vint of int  (** always within \[-2^31, 2^31) *)
  | Vdouble of float
  | Vbool of bool
  | Vchar of char
  | Vstr of string
  | Varr of t array
  | Vnull
  | Vscanner of scanner

and scanner = { mutable tokens : string list; mutable closed : bool }

(* Wrap an OCaml int to Java 32-bit int semantics. *)
let wrap32 n = Int32.to_int (Int32.of_int n)

(* Boxes for the ints that loop counters and accumulators hold most,
   made once: boxing one of them allocates nothing.  Ints are immutable,
   so sharing a box is unobservable. *)
let small_ints = Array.init 1280 (fun i -> Vint (i - 256))

let vint n =
  let n = wrap32 n in
  if n >= -256 && n < 1024 then Array.unsafe_get small_ints (n + 256)
  else Vint n

(* Both boxes are constants: boxing a boolean allocates nothing. *)
let of_bool b = if b then Vbool true else Vbool false

let type_name = function
  | Vint _ -> "int"
  | Vdouble _ -> "double"
  | Vbool _ -> "boolean"
  | Vchar _ -> "char"
  | Vstr _ -> "String"
  | Varr _ -> "array"
  | Vnull -> "null"
  | Vscanner _ -> "Scanner"

(* Java's Double.toString is involved; the subset only ever prints doubles
   that are integral or short decimals, for which this matches. *)
let string_of_double f =
  if Float.is_nan f then "NaN"
  else if Float.is_integer f && Float.abs f < 1e7 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.17g" f in
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else s

(** Rendering used by [System.out.print] and string concatenation. *)
let rec to_display = function
  | Vint n -> string_of_int n
  | Vdouble f -> string_of_double f
  | Vbool b -> if b then "true" else "false"
  | Vchar c -> String.make 1 c
  | Vstr s -> s
  | Varr a ->
      "[" ^ String.concat ", " (Array.to_list (Array.map to_display a)) ^ "]"
  | Vnull -> "null"
  | Vscanner _ -> "java.util.Scanner"

let equal a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vdouble x, Vdouble y -> x = y
  | Vint x, Vdouble y | Vdouble y, Vint x -> float_of_int x = y
  | Vbool x, Vbool y -> x = y
  | Vchar x, Vchar y -> x = y
  | Vstr x, Vstr y -> x == y
      (* Java's == on String is reference equality; Scanner tokens and
         parameters are distinct objects, so student code comparing them
         with == is wrong — .equals is the structural comparison. *)
  | Vnull, Vnull -> true
  | Varr x, Varr y -> x == y
  | Vscanner x, Vscanner y -> x == y
  | _ -> false
