(** Structured diagnostics.  See diagnostic.mli. *)

type severity = Error | Warning

type t = {
  pass : string;
  severity : severity;
  meth : string;
  line : int;
  col : int;
  message : string;
}

let make ~pass ~severity ?(meth = "") ?pos message =
  let line, col =
    match pos with
    | Some (p : Jfeed_java.Srcmap.pos) -> (p.line, p.col)
    | None -> (0, 0)
  in
  { pass; severity; meth; line; col; message }

let string_of_severity = function Error -> "error" | Warning -> "warning"

let render d =
  let where =
    match (d.meth, d.line) with
    | "", 0 -> ""
    | "", _ -> Printf.sprintf "%d:%d: " d.line d.col
    | m, 0 -> Printf.sprintf "%s: " m
    | m, _ -> Printf.sprintf "%s:%d:%d: " m d.line d.col
  in
  Printf.sprintf "%s%s [%s] %s" where
    (string_of_severity d.severity)
    d.pass d.message

let to_json d =
  let esc = Jfeed_trace.Trace.json_escape in
  Printf.sprintf
    {|{"pass":"%s","severity":"%s","method":"%s","line":%d,"col":%d,"message":"%s"}|}
    (esc d.pass)
    (string_of_severity d.severity)
    (esc d.meth) d.line d.col (esc d.message)

let compare a b =
  let c = String.compare a.meth b.meth in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.pass b.pass in
        if c <> 0 then c else String.compare a.message b.message
