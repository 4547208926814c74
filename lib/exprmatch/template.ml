type piece = Lit of string  (** already regex text *) | Placeholder of string

type t = {
  pieces : piece list;
  vars : string list;
  source : string;
  raw_pieces : piece list option;
      (* [exact_of] only: the same pieces with *unquoted* literals.  A
         fully-bound exact template is a literal string — matching it is
         string equality, no regex build, memo probe or execution. *)
}

let vars t = t.vars
let source t = t.source

(* Split "foo %x% bar" into [Lit "foo "; Placeholder "x"; Lit " bar"],
   applying [quote] to the literal parts. *)
let split ~quote text =
  let n = String.length text in
  let pieces = ref [] in
  let vars = ref [] in
  let buf = Buffer.create 16 in
  let flush_lit () =
    if Buffer.length buf > 0 then begin
      pieces := Lit (quote (Buffer.contents buf)) :: !pieces;
      Buffer.clear buf
    end
  in
  (* A '%' opens a placeholder only when it is immediately followed by an
     identifier and a closing '%' ([%x%], [%idx%]); any other '%' — e.g.
     Java's modulo operator — is literal text. *)
  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '$'
  in
  let placeholder_at i =
    if i + 1 >= n || not (is_ident_char text.[i + 1]) then None
    else
      let j = ref (i + 1) in
      while !j < n && is_ident_char text.[!j] do
        incr j
      done;
      if !j < n && text.[!j] = '%' then Some (String.sub text (i + 1) (!j - i - 1), !j)
      else None
  in
  let i = ref 0 in
  while !i < n do
    if text.[!i] = '%' then begin
      match placeholder_at !i with
      | Some (x, j) ->
          flush_lit ();
          pieces := Placeholder x :: !pieces;
          if not (List.mem x !vars) then vars := x :: !vars;
          i := j + 1
      | None ->
          Buffer.add_char buf '%';
          incr i
    end
    else begin
      Buffer.add_char buf text.[!i];
      incr i
    end
  done;
  flush_lit ();
  (List.rev !pieces, List.rev !vars)

let check_syntax pieces source =
  let dummy =
    String.concat ""
      (List.map (function Lit s -> s | Placeholder _ -> "dummy") pieces)
  in
  match Re.Pcre.re dummy with
  | (_ : Re.t) -> ()
  | exception _ ->
      invalid_arg (Printf.sprintf "Template: invalid regex %S" source)

let exact_of text =
  let pieces, vars = split ~quote:Re.Pcre.quote text in
  let raw_pieces, _ = split ~quote:Fun.id text in
  { pieces; vars; source = text; raw_pieces = Some raw_pieces }

let regex_of text =
  let pieces, vars = split ~quote:Fun.id text in
  check_syntax pieces text;
  { pieces; vars; source = text; raw_pieces = None }

let contains_of text =
  let pieces, vars = split ~quote:Re.Pcre.quote text in
  let pieces = (Lit {|(.*[^A-Za-z0-9_$])?|} :: pieces) @ [ Lit {|([^A-Za-z0-9_$].*)?|} ] in
  { pieces; vars; source = ".*" ^ text ^ ".*"; raw_pieces = None }

(* A placeholder with no binding matches any single identifier. *)
let any_identifier = {|[A-Za-z_$][A-Za-z0-9_$]*|}

(* Domain-local: the parallel batch driver grades submissions on several
   domains at once, and a shared Hashtbl would race (corrupting buckets
   is undefined behaviour under OCaml 5).  Each domain memoizes its own
   compilations — slightly more compile work, zero synchronization on
   the matcher's hottest string path.  A pool helper lives across
   Pool.map calls until it retires, so its memo outlasts a call;
   [memo_cap] bounds each domain's memo. *)
let memo_key : (string, Re.re) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

(* The set of distinct instantiated regexes is (templates x submission
   variable names); an unbounded stream of fresh names would grow the
   memo forever in a long-lived grading service, so reset it past a
   generous bound. *)
let memo_cap = 65_536

let compiled regex_text =
  let memo = Domain.DLS.get memo_key in
  match Hashtbl.find_opt memo regex_text with
  | Some re -> re
  | None ->
      if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
      let re = Re.Pcre.re ~flags:[ `ANCHORED ] (regex_text ^ "$") in
      let re = Re.compile re in
      Hashtbl.add memo regex_text re;
      re

(* Fast path for the matcher's hottest call: an exact template with every
   placeholder bound is a literal string, and Re's anchored [lit$] accepts
   exactly that string (plus a trailing-newline variant [$] tolerates,
   which cannot arise when [c] is newline-free — node texts are
   single-line, but the guard keeps the fallback authoritative). *)
let matches_literal raw_pieces ~gamma c =
  if String.contains c '\n' then None
  else
    let buf = Buffer.create (String.length c) in
    let bound =
      List.for_all
        (function
          | Lit s ->
              Buffer.add_string buf s;
              true
          | Placeholder x -> (
              match List.assoc_opt x gamma with
              | Some y ->
                  Buffer.add_string buf y;
                  true
              | None -> false))
        raw_pieces
    in
    if bound then Some (String.equal (Buffer.contents buf) c) else None

let matches t ~gamma c =
  match
    match t.raw_pieces with
    | Some rp -> matches_literal rp ~gamma c
    | None -> None
  with
  | Some r -> r
  | None ->
  let regex_text =
    String.concat ""
      (List.map
         (function
           | Lit s -> s
           | Placeholder x -> (
               match List.assoc_opt x gamma with
               | Some y -> Re.Pcre.quote y
               | None -> any_identifier))
         t.pieces)
  in
  Re.execp (compiled regex_text) c

let instantiate text ~gamma =
  let pieces, _ = split ~quote:Fun.id text in
  String.concat ""
    (List.map
       (function
         | Lit s -> s
         | Placeholder x -> (
             match List.assoc_opt x gamma with Some y -> y | None -> x))
       pieces)
