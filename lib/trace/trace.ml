(** Span/counter collection and Chrome trace_event output.  See
    trace.mli for the contract. *)

external now_ns : unit -> (int64[@unboxed])
  = "jfeed_trace_now_ns_byte" "jfeed_trace_now_ns_unboxed"
[@@noalloc]

type rspan = {
  sid : int;
  parent : int;
  name : string;
  start_ns : int64;
  mutable dur_ns : int64;  (* -1 while open *)
  mutable attrs : (string * string) list;
}

type buf = {
  mutable t0 : int64;
  mutable spans : rspan list;  (* reverse begin order *)
  mutable n : int;
  mutable stack : rspan list;  (* open spans, innermost first *)
  counters : (string, int ref) Hashtbl.t;
  mutable counter_order : string list;  (* reverse first-use order *)
}

type t = Disabled | Enabled of buf

let disabled = Disabled

let create () =
  Enabled
    {
      t0 = now_ns ();
      spans = [];
      n = 0;
      stack = [];
      counters = Hashtbl.create 16;
      counter_order = [];
    }

let enabled = function Disabled -> false | Enabled _ -> true

(* Reset an enabled collector to the empty state with a fresh zero point,
   so one buffer is reused across requests without reallocating. *)
let clear = function
  | Disabled -> ()
  | Enabled b ->
      b.t0 <- now_ns ();
      b.spans <- [];
      b.n <- 0;
      b.stack <- [];
      Hashtbl.reset b.counters;
      b.counter_order <- []

(* One reusable tracer per domain, for tail-based sampling: every
   request records into it cheaply, and only retained traces are
   serialized before the next [clear] recycles the buffer. *)
let scratch_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> create ())

let scratch () =
  let t = Domain.DLS.get scratch_key in
  clear t;
  t

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let span t ?(attrs = []) name f =
  match t with
  | Disabled -> f ()
  | Enabled b ->
      let parent = match b.stack with [] -> 0 | s :: _ -> s.sid in
      b.n <- b.n + 1;
      let s =
        { sid = b.n; parent; name; start_ns = now_ns (); dur_ns = -1L; attrs }
      in
      b.spans <- s :: b.spans;
      b.stack <- s :: b.stack;
      Fun.protect
        ~finally:(fun () ->
          s.dur_ns <- Int64.sub (now_ns ()) s.start_ns;
          (* The span being closed is the innermost open one by
             construction; anything else means an instrumentation bug,
             in which case the stack is left alone rather than
             corrupted further. *)
          match b.stack with
          | x :: rest when x == s -> b.stack <- rest
          | _ -> ())
        f

let add_attr t k v =
  match t with
  | Disabled -> ()
  | Enabled b -> (
      match b.stack with
      | [] -> ()
      | s :: _ -> s.attrs <- s.attrs @ [ (k, v) ])

let count t name n =
  match t with
  | Disabled -> ()
  | Enabled b -> (
      match Hashtbl.find_opt b.counters name with
      | Some r -> r := !r + n
      | None ->
          Hashtbl.add b.counters name (ref n);
          b.counter_order <- name :: b.counter_order)

(* ------------------------------------------------------------------ *)
(* The ambient trace (one slot per domain)                             *)

let current_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> Disabled)
let current () = Domain.DLS.get current_key
let set_current t = Domain.DLS.set current_key t

let with_current t f =
  let old = current () in
  set_current t;
  Fun.protect ~finally:(fun () -> set_current old) f

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

type span_info = {
  sid : int;
  parent : int;
  name : string;
  start_ns : int64;
  dur_ns : int64;
  attrs : (string * string) list;
}

let spans = function
  | Disabled -> []
  | Enabled b ->
      List.rev_map
        (fun (s : rspan) ->
          {
            sid = s.sid;
            parent = s.parent;
            name = s.name;
            start_ns = s.start_ns;
            dur_ns = s.dur_ns;
            attrs = s.attrs;
          })
        b.spans

let counters = function
  | Disabled -> []
  | Enabled b ->
      List.rev_map
        (fun name -> (name, !(Hashtbl.find b.counters name)))
        b.counter_order

let stage_of name =
  match String.index_opt name ':' with
  | Some i -> String.sub name 0 i
  | None -> name

let rollup t =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let stage = stage_of s.name in
      let dur = if s.dur_ns < 0L then 0L else s.dur_ns in
      match Hashtbl.find_opt tbl stage with
      | Some (n, total) -> Hashtbl.replace tbl stage (n + 1, Int64.add total dur)
      | None ->
          Hashtbl.add tbl stage (1, dur);
          order := stage :: !order)
    (spans t);
  List.rev_map (fun stage -> (stage, Hashtbl.find tbl stage)) !order

(* Nearest-rank: the smallest sample with at least p of the mass at or
   below it. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

(* The repository's one JSON string escaper: this library depends on
   nothing, so every JSON writer can reach it. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

let us_of_ns ns = Int64.to_float ns /. 1000.0

let ms_of_ns ns = Int64.to_float ns /. 1_000_000.0

let attrs_json attrs =
  String.concat ","
    (List.map
       (fun (k, v) ->
         Printf.sprintf {|"%s":"%s"|} (json_escape k) (json_escape v))
       attrs)

let to_chrome_json ?(pid = 1) ?(tid = 1) t =
  match t with
  | Disabled -> "[]"
  | Enabled b ->
      let buf = Buffer.create 4096 in
      Buffer.add_char buf '[';
      let first = ref true in
      let sep () =
        if !first then first := false else Buffer.add_char buf ',';
        Buffer.add_string buf "\n "
      in
      List.iter
        (fun s ->
          sep ();
          let dur = if s.dur_ns < 0L then 0L else s.dur_ns in
          let args =
            match s.attrs with
            | [] -> ""
            | attrs -> Printf.sprintf {|,"args":{%s}|} (attrs_json attrs)
          in
          Buffer.add_string buf
            (Printf.sprintf
               {|{"name":"%s","cat":"jfeed","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d%s}|}
               (json_escape s.name)
               (us_of_ns (Int64.sub s.start_ns b.t0))
               (us_of_ns dur) pid tid args))
        (spans t);
      (match counters t with
      | [] -> ()
      | cs ->
          sep ();
          Buffer.add_string buf
            (Printf.sprintf
               {|{"name":"counters","cat":"jfeed","ph":"C","ts":%.3f,"pid":%d,"tid":%d,"args":{%s}}|}
               (us_of_ns (Int64.sub (now_ns ()) b.t0))
               pid tid
               (String.concat ","
                  (List.map
                     (fun (k, v) ->
                       Printf.sprintf {|"%s":%d|} (json_escape k) v)
                     cs))));
      Buffer.add_string buf "\n]";
      Buffer.contents buf

let spans_json t =
  match t with
  | Disabled -> "[]"
  | Enabled b ->
      let buf = Buffer.create 512 in
      Buffer.add_char buf '[';
      List.iteri
        (fun i s ->
          if i > 0 then Buffer.add_char buf ',';
          let dur = if s.dur_ns < 0L then 0L else s.dur_ns in
          let args =
            match s.attrs with
            | [] -> ""
            | attrs -> Printf.sprintf {|,"attrs":{%s}|} (attrs_json attrs)
          in
          Buffer.add_string buf
            (Printf.sprintf
               {|{"sid":%d,"parent":%d,"name":"%s","start_us":%.1f,"dur_us":%.1f%s}|}
               s.sid s.parent (json_escape s.name)
               (us_of_ns (Int64.sub s.start_ns b.t0))
               (us_of_ns dur) args))
        (spans t);
      Buffer.add_char buf ']';
      Buffer.contents buf

let summary_json t =
  let stages =
    String.concat ","
      (List.map
         (fun (stage, (n, total_ns)) ->
           Printf.sprintf {|"%s":{"n":%d,"ms":%.4f}|} (json_escape stage) n
             (ms_of_ns total_ns))
         (rollup t))
  in
  let cs =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf {|"%s":%d|} (json_escape k) v)
         (counters t))
  in
  Printf.sprintf {|{"stages":{%s},"counters":{%s}}|} stages cs
