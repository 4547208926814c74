(** Wire protocol: JSONL requests/responses.  See proto.mli. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* JSON parsing: total recursive descent.  The paper's serving tier
   needs exactly one reader — request lines — so the parser favours
   clarity and hard totality over speed; a request line is a few
   kilobytes of submission text at most. *)

exception Bad of int * string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected '%c', found '%c'" c c')
    | None -> fail (Printf.sprintf "expected '%c', found end of input" c)
  in
  let literal word value =
    let w = String.length word in
    if !pos + w <= n && String.sub s !pos w = word then begin
      pos := !pos + w;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* UTF-8 encode one \uXXXX code point; surrogate pairs are combined
     when both halves are present, a lone surrogate is an error. *)
  let add_code_point buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4)
      with _ -> fail "invalid \\u escape"
    in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  let cp = hex4 () in
                  let cp =
                    if cp >= 0xD800 && cp <= 0xDBFF then begin
                      (* high surrogate: require the low half *)
                      if
                        !pos + 2 <= n
                        && s.[!pos] = '\\'
                        && s.[!pos + 1] = 'u'
                      then begin
                        pos := !pos + 2;
                        let lo = hex4 () in
                        if lo >= 0xDC00 && lo <= 0xDFFF then
                          0x10000
                          + ((cp - 0xD800) lsl 10)
                          + (lo - 0xDC00)
                        else fail "unpaired surrogate"
                      end
                      else fail "unpaired surrogate"
                    end
                    else if cp >= 0xDC00 && cp <= 0xDFFF then
                      fail "unpaired surrogate"
                    else cp
                  in
                  add_code_point buf cp
              | _ -> fail (Printf.sprintf "bad escape '\\%c'" c));
              go ()
          )
      | Some c when Char.code c < 0x20 ->
          fail "unescaped control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d = ref 0 in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ();
        incr d
      done;
      !d
    in
    let int_start = !pos in
    if digits () = 0 then fail "expected digits";
    if !pos - int_start > 1 && s.[int_start] = '0' then fail "leading zero";
    if peek () = Some '.' then begin
      advance ();
      if digits () = 0 then fail "expected digits after '.'"
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        if digits () = 0 then fail "expected exponent digits"
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "invalid number"
  in
  let rec parse_value depth =
    if depth > 100 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "expected a value, found end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then fail "trailing characters after JSON value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "invalid JSON at byte %d: %s" at msg)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type request =
  | Grade of {
      id : string option;
      rid : string option;
      assignment : string;
      source : string;
      fuel : int option;
      deadline_s : float option;
      with_tests : bool option;
    }
  | Stats of { id : string option }
  | Metrics of { id : string option }
  | Slowlog of { id : string option }
  | Shutdown of { id : string option }

let string_field j k =
  match member k j with
  | Some (Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
  | None -> Ok None

let bool_field j k =
  match member k j with
  | Some (Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" k)
  | None -> Ok None

let int_field j k =
  match member k j with
  | Some (Num f) when Float.is_integer f && Float.abs f <= 1e9 ->
      Ok (Some (int_of_float f))
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" k)
  | None -> Ok None

let num_field j k =
  match member k j with
  | Some (Num f) -> Ok (Some f)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" k)
  | None -> Ok None

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let request_of_line line =
  match parse_json line with
  | Error e -> Error (None, e)
  | Ok j -> (
      let id =
        match member "id" j with Some (Str s) -> Some s | _ -> None
      in
      let with_id = function Ok v -> Ok v | Error e -> Error (id, e) in
      match j with
      | Obj _ -> (
          match member "op" j with
          | Some (Str "grade") ->
              with_id
                (let* rid = string_field j "rid" in
                 let* assignment = string_field j "assignment" in
                 let* source = string_field j "source" in
                 let* fuel = int_field j "fuel" in
                 let* deadline_s = num_field j "deadline_s" in
                 let* with_tests = bool_field j "with_tests" in
                 match (assignment, source) with
                 | None, _ -> Error "grade request lacks \"assignment\""
                 | _, None -> Error "grade request lacks \"source\""
                 | Some assignment, Some source ->
                     Ok
                       (Grade
                          { id; rid; assignment; source; fuel; deadline_s;
                            with_tests }))
          | Some (Str "stats") -> Ok (Stats { id })
          | Some (Str "metrics") -> Ok (Metrics { id })
          | Some (Str "slowlog") -> Ok (Slowlog { id })
          | Some (Str "shutdown") -> Ok (Shutdown { id })
          | Some (Str op) -> Error (id, Printf.sprintf "unknown op %S" op)
          | Some _ -> Error (id, "field \"op\" must be a string")
          | None -> Error (id, "request lacks \"op\""))
      | _ -> Error (None, "request must be a JSON object"))

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let esc = Jfeed_trace.Trace.json_escape

let id_prefix = function
  | Some id -> Printf.sprintf {|"id":"%s",|} (esc id)
  | None -> ""

(* The correlation id renders right after "id" — but only when one
   exists (client-supplied or minted under telemetry), so responses on
   an untelemetered daemon stay byte-identical to the frozen goldens. *)
let rid_prefix = function
  | Some rid -> Printf.sprintf {|"rid":"%s",|} (esc rid)
  | None -> ""

let grade_response ?id ?rid ~cached ~fuel result_json =
  let fuel_field =
    match fuel with
    | Some f -> Printf.sprintf {|,"fuel":%d|} f
    | None -> ""
  in
  Printf.sprintf {|{%s%s"op":"grade","cached":%b%s,"result":%s}|}
    (id_prefix id) (rid_prefix rid) cached fuel_field result_json

let overloaded_response ?id ?rid
    ?(reason = "admission queue full; retry later") () =
  (* Load shedding's explicit refusal: still an [op:"grade"] line (the
     client asked for a grade and gets exactly one answer), with the
     machine-checkable marker ["rejected":"overloaded"] and a rejected
     Outcome in the result slot so uniform clients parse it like any
     other grade. *)
  Printf.sprintf
    {|{%s%s"op":"grade","rejected":"overloaded","result":{"outcome":"rejected","stage":"admission","error":"%s"}}|}
    (id_prefix id) (rid_prefix rid) (esc reason)

let stats_response ?id fields =
  Printf.sprintf {|{%s"op":"stats",%s}|} (id_prefix id) fields

type slow_entry = {
  s_rid : string option;
  s_assignment : string;
  s_ms : float;
  s_outcome : string;
  s_stages : (string * float) list;
}

let slowlog_response ?id entries =
  let entry e =
    let stages =
      String.concat ","
        (List.map
           (fun (stage, ms) ->
             Printf.sprintf {|"%s":%.3g|} (esc stage) ms)
           e.s_stages)
    in
    Printf.sprintf
      {|{%s"assignment":"%s","ms":%.3g,"outcome":"%s","stages":{%s}}|}
      (rid_prefix e.s_rid) (esc e.s_assignment) e.s_ms (esc e.s_outcome)
      stages
  in
  Printf.sprintf {|{%s"op":"slowlog","n":%d,"slowest":[%s]}|} (id_prefix id)
    (List.length entries)
    (String.concat "," (List.map entry entries))

let shutdown_response ?id () =
  Printf.sprintf {|{%s"op":"shutdown","ok":true}|} (id_prefix id)

let error_response ?id ?rid msg =
  Printf.sprintf {|{%s%s"op":"error","error":"%s"}|} (id_prefix id)
    (rid_prefix rid) (esc msg)
