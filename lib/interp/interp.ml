(** Closure compiler for the Java subset.

    Replaces the JVM for functional testing: programs print to a captured
    stdout, read files from a virtual file system through
    [java.util.Scanner], and run under a step budget so that the
    infinite-loop submissions the paper worries about terminate with a
    distinguishable outcome instead of hanging the harness.

    Each run first compiles every method of the program into OCaml
    closures, resolving every local variable to a slot of a per-call
    {!frame}; running the entry method is then a tree of closure calls
    with no name lookup and no per-block allocation. *)

open Jfeed_java
open Value

exception Runtime_error of string
exception Step_limit
exception Fuel_exhausted
(* Distinct from Step_limit: the per-run step ceiling says "this
   submission loops"; the shared fuel pool says "the grading budget for
   this submission is spent".  The pipeline degrades differently on
   each. *)

type config = {
  files : (string * string) list;  (** virtual file system: name → content *)
  max_steps : int;
}

let default_config = { files = []; max_steps = 1_000_000 }

type outcome = {
  stdout : string;
  result : Value.t option;  (** [None] when execution failed *)
  steps : int;
  error : string option;
      (** runtime error or ["step limit exceeded"] (≈ infinite loop) *)
}

type ctx = {
  config : config;
  budget : Jfeed_budget.Budget.t option;
      (** shared grading fuel pool; unlike [config.max_steps] (per run)
          it is spent across runs, unifying the interpreter's step
          budget with the matcher's and the pairing search's *)
  out : Buffer.t;
  mutable steps : int;
  traced : bool;
      (** compile a name-sorted snapshot of the visible variables after
          every executed statement (CLARA-style variable traces) *)
  mutable snapshots : (string * string) list list;  (** newest first *)
}

exception Break_exc
exception Continue_exc
exception Return_exc of Value.t

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let tick ctx =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.config.max_steps then raise Step_limit;
  match ctx.budget with
  | Some b
    when not (Jfeed_budget.Budget.spend b Jfeed_budget.Budget.Interp 1) ->
      raise Fuel_exhausted
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Numeric helpers (Java semantics)                                    *)

let as_number = function
  | Vint n -> `Int n
  | Vdouble f -> `Double f
  | Vchar c -> `Int (Char.code c)
  | v -> fail "expected a number, found %s" (type_name v)

let arith op a b =
  match (as_number a, as_number b) with
  | `Int x, `Int y -> (
      match op with
      | Ast.Add -> vint (x + y)
      | Ast.Sub -> vint (x - y)
      | Ast.Mul -> vint (x * y)
      | Ast.Div ->
          if y = 0 then fail "/ by zero" else vint (Stdlib.( / ) x y)
      | Ast.Mod -> if y = 0 then fail "%% by zero" else vint (x mod y)
      | Ast.Bit_and -> vint (x land y)
      | Ast.Bit_or -> vint (x lor y)
      | Ast.Bit_xor -> vint (x lxor y)
      | Ast.Shl -> vint (x lsl (y land 31))
      | Ast.Shr -> vint (x asr (y land 31))
      | Ast.Ushr -> vint (wrap32 ((x land 0xFFFFFFFF) lsr (y land 31)))
      | _ -> assert false)
  | (`Int _ | `Double _), (`Int _ | `Double _) -> (
      let x = match as_number a with `Int n -> float_of_int n | `Double f -> f in
      let y = match as_number b with `Int n -> float_of_int n | `Double f -> f in
      match op with
      | Ast.Add -> Vdouble (x +. y)
      | Ast.Sub -> Vdouble (x -. y)
      | Ast.Mul -> Vdouble (x *. y)
      | Ast.Div -> Vdouble (x /. y)
      | Ast.Mod -> Vdouble (Float.rem x y)
      | _ -> fail "bitwise operator on double")

let compare_values op a b =
  let x, y =
    match (as_number a, as_number b) with
    | `Int x, `Int y -> (float_of_int x, float_of_int y)
    | `Int x, `Double y -> (float_of_int x, y)
    | `Double x, `Int y -> (x, float_of_int y)
    | `Double x, `Double y -> (x, y)
  in
  Vbool
    (match op with
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
    | _ -> assert false)

let as_bool = function
  | Vbool b -> b
  | v -> fail "expected a boolean, found %s" (type_name v)

let as_int = function
  | Vint n -> n
  | Vchar c -> Char.code c
  | v -> fail "expected an int, found %s" (type_name v)

let as_double = function
  | Vdouble f -> f
  | Vint n -> float_of_int n
  | v -> fail "expected a double, found %s" (type_name v)

let default_value = function
  | Ast.Tprim "double" | Ast.Tprim "float" -> Vdouble 0.0
  | Ast.Tprim "boolean" -> Vbool false
  | Ast.Tprim "char" -> Vchar '\000'
  | Ast.Tprim _ -> Vint 0
  | Ast.Tclass _ | Ast.Tarray _ -> Vnull

(* ------------------------------------------------------------------ *)
(* Scanner / whitespace tokenization                                   *)

let split_tokens content =
  String.split_on_char '\n' content
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun s -> s <> "")

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)

let math_call name vals =
  match (name, vals) with
  | "pow", [ a; b ] -> Vdouble (Float.pow (as_double a) (as_double b))
  | "sqrt", [ a ] -> Vdouble (Float.sqrt (as_double a))
  | "abs", [ Vint n ] -> vint (abs n)
  | "abs", [ Vdouble f ] -> Vdouble (Float.abs f)
  | "floor", [ a ] -> Vdouble (Float.floor (as_double a))
  | "ceil", [ a ] -> Vdouble (Float.ceil (as_double a))
  | "log10", [ a ] -> Vdouble (Float.log10 (as_double a))
  | "log", [ a ] -> Vdouble (Float.log (as_double a))
  | "min", [ Vint a; Vint b ] -> Vint (min a b)
  | "max", [ Vint a; Vint b ] -> Vint (max a b)
  | "min", [ a; b ] -> Vdouble (Float.min (as_double a) (as_double b))
  | "max", [ a; b ] -> Vdouble (Float.max (as_double a) (as_double b))
  | _ -> fail "unsupported Math.%s/%d" name (List.length vals)

let integer_call name vals =
  match (name, vals) with
  | "parseInt", [ Vstr s ] -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> vint n
      | None -> fail "NumberFormatException: %S" s)
  | "toString", [ Vint n ] -> Vstr (string_of_int n)
  | _ -> fail "unsupported Integer.%s" name

let string_class_call name vals =
  match (name, vals) with
  | "valueOf", [ v ] -> Vstr (to_display v)
  | _ -> fail "unsupported String.%s" name

let scanner_call sc name vals =
  let ensure_open () = if sc.closed then fail "Scanner is closed" in
  match (name, vals) with
  | "hasNext", [] ->
      ensure_open ();
      Vbool (sc.tokens <> [])
  | "hasNextInt", [] ->
      ensure_open ();
      Vbool
        (match sc.tokens with
        | t :: _ -> int_of_string_opt t <> None
        | [] -> false)
  | "next", [] -> (
      ensure_open ();
      match sc.tokens with
      | t :: rest ->
          sc.tokens <- rest;
          Vstr t
      | [] -> fail "NoSuchElementException")
  | "nextInt", [] -> (
      ensure_open ();
      match sc.tokens with
      | t :: rest -> (
          match int_of_string_opt t with
          | Some n ->
              sc.tokens <- rest;
              vint n
          | None -> fail "InputMismatchException: %S" t)
      | [] -> fail "NoSuchElementException")
  | "close", [] ->
      sc.closed <- true;
      Vnull
  | _ -> fail "unsupported Scanner.%s/%d" name (List.length vals)

let string_call s name vals =
  match (name, vals) with
  | "equals", [ Vstr t ] -> Vbool (s = t)
  | "equals", [ _ ] -> Vbool false
  | "equalsIgnoreCase", [ Vstr t ] ->
      Vbool (String.lowercase_ascii s = String.lowercase_ascii t)
  | "length", [] -> Vint (String.length s)
  | "charAt", [ Vint i ] ->
      if i < 0 || i >= String.length s then
        fail "StringIndexOutOfBoundsException: %d" i
      else Vchar s.[i]
  | "isEmpty", [] -> Vbool (s = "")
  | "concat", [ Vstr t ] -> Vstr (s ^ t)
  | "contains", [ Vstr t ] ->
      let re_free =
        let n = String.length t in
        let rec at i =
          if i + n > String.length s then false
          else if String.sub s i n = t then true
          else at (i + 1)
        in
        n = 0 || at 0
      in
      Vbool re_free
  | "trim", [] -> Vstr (String.trim s)
  | _ -> fail "unsupported String.%s/%d" name (List.length vals)

(* ------------------------------------------------------------------ *)
(* Frames and scopes                                                   *)

(* A call's locals live in a frame: one slot per (scope, name) pair of
   its method, numbered at compile time.  A scope is a method (its
   parameters and top-level declarations), a block, a [for] (its init
   declarations), or a loop or branch body that is not a block.
   Declarations in switch cases belong to the scope holding the switch,
   whose environment the case bodies run in.  Entering a scope resets its
   slots to [unbound], so a slot is bound exactly while its declaration
   has run in the current activation of its scope. *)
type frame = Value.t array

(* Physically unique and never handed to the program. *)
let unbound = Vscanner { tokens = []; closed = true }

type scope = (string * int) list  (** names declared directly in it → slot *)

(* Names a scope declares directly, after [init], in first-declaration
   order. *)
let declared ?(init = []) stmts =
  let add acc x = if List.mem x acc then acc else x :: acc in
  let rec go acc = function
    | Ast.Sdecl ds ->
        List.fold_left (fun acc (d : Ast.var_decl) -> add acc d.Ast.d_name) acc ds
    | Ast.Sswitch (_, cases) ->
        List.fold_left
          (fun acc (k : Ast.switch_case) ->
            List.fold_left go acc k.Ast.case_body)
          acc cases
    | _ -> acc
  in
  List.rev (List.fold_left go (List.fold_left add [] init) stmts)

(* The slots a name may live in at a program point, innermost scope
   first; the first bound one holds the binding in force. *)
let candidates chain x = List.filter_map (List.assoc_opt x) chain

(* The first bound slot among [slots] from index [i] on, or [-1]. *)
let rec bound (fr : frame) slots i =
  if i = Array.length slots then -1
  else if fr.(slots.(i)) == unbound then bound fr slots (i + 1)
  else slots.(i)

let undefined x = fail "variable %s is not defined" x

let compile_lookup chain x : frame -> Value.t =
  match Array.of_list (candidates chain x) with
  | [| s |] ->
      fun fr ->
        let v = fr.(s) in
        if v == unbound then undefined x else v
  | slots ->
      fun fr ->
        let s = bound fr slots 0 in
        if s < 0 then undefined x else fr.(s)

let compile_update chain x : frame -> Value.t -> unit =
  let slots = Array.of_list (candidates chain x) in
  fun fr v ->
    let s = bound fr slots 0 in
    if s < 0 then undefined x else fr.(s) <- v

let enter_scope (sc : scope) (body : frame -> unit) : frame -> unit =
  match Array.of_list (List.map snd sc) with
  | [||] -> body
  | slots ->
      fun fr ->
        for i = 0 to Array.length slots - 1 do
          fr.(slots.(i)) <- unbound
        done;
        body fr

(* Snapshot of the variables visible in [chain]: bound slots only, the
   innermost binding per name, sorted by name.  Scalars are rendered in
   full; aggregates only by a cheap summary — rendering a large array on
   every snapshot would make tracing quadratic in the input size (CLARA
   traces scalar variables). *)
let compile_snapshot chain : frame -> (string * string) list =
  let cheap = function
    | (Vint _ | Vdouble _ | Vbool _ | Vchar _ | Vstr _ | Vnull) as v ->
        to_display v
    | Varr a -> Printf.sprintf "<array:%d>" (Array.length a)
    | Vscanner _ -> "<scanner>"
  in
  let names = List.sort_uniq compare (List.concat_map (List.map fst) chain) in
  let visible =
    List.map (fun x -> (x, Array.of_list (candidates chain x))) names
  in
  fun fr ->
    List.filter_map
      (fun (x, slots) ->
        let s = bound fr slots 0 in
        if s < 0 then None else Some (x, cheap fr.(s)))
      visible

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

type meth = {
  def : Ast.meth;
  arity : int;
  mutable params : int array;  (** slot of each parameter, in order *)
  mutable size : int;  (** frame slots *)
  mutable body : frame -> unit;
}

(* Run a method body on its frame.  A [break] or [continue] that leaves
   the body is the runtime form of javac's compile error: it fails the
   call instead of leaking into the caller's loop. *)
let enter m fr =
  match m.body fr with
  | () -> Vnull
  | exception Return_exc v -> v
  | exception Break_exc -> fail "break outside switch or loop"
  | exception Continue_exc -> fail "continue outside of loop"

type compiler = {
  ctx : ctx;
  methods : (string, meth) Hashtbl.t;
  mutable slots : int;  (** slots numbered so far in the current method *)
}

let new_scope cm names : scope =
  List.map
    (fun x ->
      let s = cm.slots in
      cm.slots <- s + 1;
      (x, s))
    names

let rec seq = function
  | [] -> fun _ -> ()
  | [ a ] -> a
  | a :: rest ->
      let rest = seq rest in
      fun fr ->
        a fr;
        rest fr

let effects cs = seq (List.map (fun c fr -> ignore (c fr)) cs)

let rec compile_expr cm chain (e : Ast.expr) : frame -> Value.t =
  let expr = compile_expr cm chain in
  let ctx = cm.ctx in
  let const v _ = v in
  match e with
  | Ast.Int_lit n -> const (vint n)
  | Ast.Double_lit f -> const (Vdouble f)
  | Ast.Bool_lit b -> const (Vbool b)
  | Ast.Char_lit c -> const (Vchar c)
  | Ast.Str_lit s -> const (Vstr s)
  | Ast.Null_lit -> const Vnull
  | Ast.Var x -> compile_lookup chain x
  | Ast.Field (obj, fld) -> compile_field cm chain obj fld
  | Ast.Index (arr, idx) ->
      let arr = expr arr and idx = expr idx in
      fun fr ->
        let a = arr fr in
        let i = as_int (idx fr) in
        (match a with
        | Varr elems ->
            if i < 0 || i >= Array.length elems then
              fail "Index %d out of bounds for length %d" i (Array.length elems)
            else elems.(i)
        | Vnull -> fail "NullPointerException (array access)"
        | v -> fail "cannot index a %s" (type_name v))
  | Ast.Call (recv, name, args) -> compile_call cm chain recv name args
  | Ast.New (Tclass "File", [ path ]) -> expr path
  | Ast.New (Tclass "Scanner", [ src ]) ->
      let src = expr src in
      fun fr ->
        (match src fr with
        | Vstr path -> (
            match List.assoc_opt path ctx.config.files with
            | Some content ->
                Vscanner { tokens = split_tokens content; closed = false }
            | None -> fail "FileNotFoundException: %s" path)
        | v -> fail "cannot build a Scanner from a %s" (type_name v))
  | Ast.New (t, _) ->
      let t = Ast.string_of_typ t in
      fun _ -> fail "cannot instantiate %s" t
  | Ast.New_array (t, dims) ->
      let dims = List.map expr dims in
      let rec build = function
        | [] -> default_value t
        | d :: rest ->
            if d < 0 then fail "NegativeArraySizeException: %d" d
            else Varr (Array.init d (fun _ -> build rest))
      in
      fun fr -> build (List.map (fun d -> as_int (d fr)) dims)
  | Ast.Array_lit elts ->
      let elts = List.map expr elts in
      fun fr -> Varr (Array.of_list (List.map (fun c -> c fr) elts))
  | Ast.Unary (op, e) -> (
      let e = expr e in
      match op with
      | Ast.Neg ->
          fun fr ->
            (match as_number (e fr) with
            | `Int n -> vint (-n)
            | `Double f -> Vdouble (-.f))
      | Ast.Uplus -> e
      | Ast.Not -> fun fr -> Vbool (not (as_bool (e fr)))
      | Ast.Bit_not -> fun fr -> vint (lnot (as_int (e fr))))
  | Ast.Incdec (kind, target) ->
      (* The target is read, then stored: subscripts are evaluated twice. *)
      let get = expr target and set = compile_store cm chain target in
      let delta = match kind with
        | Ast.Pre_incr | Ast.Post_incr -> 1
        | Ast.Pre_decr | Ast.Post_decr -> -1
      in
      let pre = match kind with
        | Ast.Pre_incr | Ast.Pre_decr -> true
        | Ast.Post_incr | Ast.Post_decr -> false
      in
      fun fr ->
        let old = get fr in
        let updated =
          match as_number old with
          | `Int n -> vint (n + delta)
          | `Double f -> Vdouble (f +. float_of_int delta)
        in
        set fr updated;
        if pre then updated else old
  | Ast.Binary (Ast.And, a, b) ->
      let a = expr a and b = expr b in
      fun fr -> if as_bool (a fr) then Vbool (as_bool (b fr)) else Vbool false
  | Ast.Binary (Ast.Or, a, b) ->
      let a = expr a and b = expr b in
      fun fr -> if as_bool (a fr) then Vbool true else Vbool (as_bool (b fr))
  | Ast.Binary (op, a, b) ->
      let a = expr a and b = expr b in
      let f =
        match op with
        | Ast.Add -> (
            fun va vb ->
              match (va, vb) with
              | Vstr _, _ | _, Vstr _ -> Vstr (to_display va ^ to_display vb)
              | _ -> arith op va vb)
        | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Bit_and | Ast.Bit_or
        | Ast.Bit_xor | Ast.Shl | Ast.Shr | Ast.Ushr ->
            fun va vb -> arith op va vb
        | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> fun va vb -> compare_values op va vb
        | Ast.Eq -> fun va vb -> Vbool (Value.equal va vb)
        | Ast.Ne -> fun va vb -> Vbool (not (Value.equal va vb))
        | Ast.And | Ast.Or -> assert false
      in
      fun fr ->
        let va = a fr in
        let vb = b fr in
        f va vb
  | Ast.Assign (Ast.Set, lhs, rhs) ->
      (* The right-hand side runs before the target's subscripts. *)
      let rhs = expr rhs and set = compile_store cm chain lhs in
      fun fr ->
        let v = rhs fr in
        set fr v;
        v
  | Ast.Assign (op, lhs, rhs) ->
      let bin =
        match op with
        | Ast.Add_eq -> Ast.Add
        | Ast.Sub_eq -> Ast.Sub
        | Ast.Mul_eq -> Ast.Mul
        | Ast.Div_eq -> Ast.Div
        | Ast.Mod_eq -> Ast.Mod
        | Ast.Set -> assert false
      in
      let rhs = expr rhs and get = expr lhs in
      let set = compile_store cm chain lhs in
      fun fr ->
        let rv = rhs fr in
        let old = get fr in
        let final =
          match (bin, old) with
          | Ast.Add, Vstr _ -> Vstr (to_display old ^ to_display rv)
          | _ -> arith bin old rv
        in
        set fr final;
        final
  | Ast.Ternary (c, t, f) ->
      let c = expr c and t = expr t and f = expr f in
      fun fr -> if as_bool (c fr) then t fr else f fr
  | Ast.Cast (Tprim ("int" | "long" | "short" | "byte"), e) ->
      let e = expr e in
      fun fr ->
        (match as_number (e fr) with
        | `Int n -> vint n
        | `Double f -> vint (int_of_float (Float.trunc f)))
  | Ast.Cast (Tprim ("double" | "float"), e) ->
      let e = expr e in
      fun fr -> Vdouble (as_double (e fr))
  | Ast.Cast (Tprim "char", e) ->
      let e = expr e in
      fun fr ->
        (match as_number (e fr) with
        | `Int n -> Vchar (Char.chr (n land 0xFF))
        | `Double f -> Vchar (Char.chr (int_of_float f land 0xFF)))
  | Ast.Cast (_, e) -> expr e

and compile_store cm chain (lhs : Ast.expr) : frame -> Value.t -> unit =
  match lhs with
  | Ast.Var x -> compile_update chain x
  | Ast.Index (arr, idx) ->
      let arr = compile_expr cm chain arr and idx = compile_expr cm chain idx in
      fun fr v ->
        let a = arr fr in
        let i = as_int (idx fr) in
        (match a with
        | Varr elems ->
            if i < 0 || i >= Array.length elems then
              fail "Index %d out of bounds for length %d" i (Array.length elems)
            else elems.(i) <- v
        | Vnull -> fail "NullPointerException (array store)"
        | other -> fail "cannot index a %s" (type_name other))
  | _ -> fun _ _ -> fail "unsupported assignment target"

and compile_field cm chain obj fld =
  match (obj, fld) with
  | Ast.Var "Integer", "MAX_VALUE" -> fun _ -> Vint 0x7FFFFFFF
  | Ast.Var "Integer", "MIN_VALUE" -> fun _ -> Vint (-0x80000000)
  | Ast.Var "Math", "PI" -> fun _ -> Vdouble Float.pi
  | _, "length" ->
      let obj = compile_expr cm chain obj in
      fun fr ->
        (match obj fr with
        | Varr a -> Vint (Array.length a)
        | Vnull -> fail "NullPointerException (.length)"
        | v -> fail "%s has no field length" (type_name v))
  | Ast.Var "System", "out" -> fun _ -> Vnull (* only meaningful as a call receiver *)
  | _ -> fun _ -> fail "unsupported field access .%s" fld

(* Every call ticks once, before its receiver and arguments run. *)
and compile_call cm chain recv name args =
  let ctx = cm.ctx in
  let args = List.map (compile_expr cm chain) args in
  let builtin f =
    fun fr ->
      tick ctx;
      f (List.map (fun c -> c fr) args)
  in
  match recv with
  | Some (Ast.Field (Ast.Var "System", "out")) -> (
      match (name, args) with
      | "println", [] ->
          fun _ ->
            tick ctx;
            Buffer.add_char ctx.out '\n';
            Vnull
      | "println", [ a ] ->
          fun fr ->
            tick ctx;
            Buffer.add_string ctx.out (to_display (a fr));
            Buffer.add_char ctx.out '\n';
            Vnull
      | "print", [ a ] ->
          fun fr ->
            tick ctx;
            Buffer.add_string ctx.out (to_display (a fr));
            Vnull
      | _ ->
          builtin (fun vals ->
              fail "unsupported System.out.%s/%d" name (List.length vals)))
  | Some (Ast.Var "Math") -> builtin (math_call name)
  | Some (Ast.Var "Integer") -> builtin (integer_call name)
  | Some (Ast.Var "String") -> builtin (string_class_call name)
  | Some recv ->
      let recv = compile_expr cm chain recv in
      fun fr ->
        tick ctx;
        let receiver = recv fr in
        let vals = List.map (fun c -> c fr) args in
        (match receiver with
        | Vscanner sc -> scanner_call sc name vals
        | Vstr s -> string_call s name vals
        | Vnull -> fail "NullPointerException (method call .%s)" name
        | v -> fail "cannot call .%s on a %s" name (type_name v))
  | None -> (
      match Hashtbl.find_opt cm.methods name with
      | None ->
          fun _ ->
            tick ctx;
            fail "unknown method %s" name
      | Some m when List.length args <> m.arity ->
          let n = List.length args in
          fun fr ->
            tick ctx;
            List.iter (fun c -> ignore (c fr)) args;
            fail "method %s expects %d arguments, got %d" name m.arity n
      | Some m ->
          let args = Array.of_list args in
          fun fr ->
            tick ctx;
            let callee = Array.make m.size unbound in
            for i = 0 to Array.length args - 1 do
              callee.(m.params.(i)) <- args.(i) fr
            done;
            enter m callee)

(* A statement ticks once before it runs and, when tracing, snapshots the
   variables visible in its scope chain after it completes. *)
and compile_stmt cm chain (s : Ast.stmt) : frame -> unit =
  let run = compile_inner cm chain s in
  let ctx = cm.ctx in
  if ctx.traced then
    let snapshot = compile_snapshot chain in
    fun fr ->
      tick ctx;
      run fr;
      ctx.snapshots <- snapshot fr :: ctx.snapshots
  else
    fun fr ->
      tick ctx;
      run fr

and compile_inner cm chain (s : Ast.stmt) : frame -> unit =
  let expr = compile_expr cm chain and scoped = compile_scoped cm chain in
  let ctx = cm.ctx in
  match s with
  | Ast.Sempty -> fun _ -> ()
  | Ast.Sblock body ->
      let sc = new_scope cm (declared body) in
      enter_scope sc (seq (List.map (compile_stmt cm (sc :: chain)) body))
  | Ast.Sdecl decls ->
      let scope = List.hd chain in
      seq
        (List.map
           (fun (d : Ast.var_decl) ->
             let slot = List.assoc d.Ast.d_name scope in
             match d.Ast.d_init with
             | Some e ->
                 let e = expr e in
                 fun fr -> fr.(slot) <- e fr
             | None ->
                 let v = default_value d.Ast.d_type in
                 fun fr -> fr.(slot) <- v)
           decls)
  | Ast.Sexpr e ->
      let e = expr e in
      fun fr -> ignore (e fr)
  | Ast.Sif (c, then_, None) ->
      let c = expr c and then_ = scoped then_ in
      fun fr -> if as_bool (c fr) then then_ fr
  | Ast.Sif (c, then_, Some else_) ->
      let c = expr c and then_ = scoped then_ and else_ = scoped else_ in
      fun fr -> if as_bool (c fr) then then_ fr else else_ fr
  | Ast.Swhile (c, body) ->
      let c = expr c and body = scoped body in
      fun fr ->
        (try
           while as_bool (c fr) do
             tick ctx;
             try body fr with Continue_exc -> ()
           done
         with Break_exc -> ())
  | Ast.Sdo (body, c) ->
      let c = expr c and body = scoped body in
      fun fr ->
        (try
           let continue_loop = ref true in
           while !continue_loop do
             tick ctx;
             (try body fr with Continue_exc -> ());
             continue_loop := as_bool (c fr)
           done
         with Break_exc -> ())
  | Ast.Sfor (init, cond, update, body) ->
      let decls = match init with Some (Ast.For_decl ds) -> ds | _ -> [] in
      let sc = new_scope cm (declared [ Ast.Sdecl decls ]) in
      let chain = sc :: chain in
      let expr = compile_expr cm chain in
      let init =
        match init with
        | None -> fun _ -> ()
        | Some (Ast.For_decl decls) -> compile_stmt cm chain (Ast.Sdecl decls)
        | Some (Ast.For_exprs es) -> effects (List.map expr es)
      in
      let check =
        match cond with
        | None -> fun _ -> true
        | Some c ->
            let c = expr c in
            fun fr -> as_bool (c fr)
      in
      let update = effects (List.map expr update) in
      let body = compile_scoped cm chain body in
      enter_scope sc (fun fr ->
          init fr;
          try
            while check fr do
              tick ctx;
              (try body fr with Continue_exc -> ());
              update fr
            done
          with Break_exc -> ())
  | Ast.Sswitch (scrutinee, cases) ->
      let scrutinee = expr scrutinee in
      let labels =
        Array.of_list
          (List.map (fun (k : Ast.switch_case) -> Option.map expr k.Ast.case_label) cases)
      in
      let bodies =
        Array.of_list
          (List.map
             (fun (k : Ast.switch_case) ->
               seq (List.map (compile_stmt cm chain) k.Ast.case_body))
             cases)
      in
      let n = Array.length bodies in
      (* Case bodies fall through; with no matching label, run from the
         first [default:] if there is one. *)
      let default =
        let rec first i =
          if i = n || labels.(i) = None then i else first (i + 1)
        in
        first 0
      in
      fun fr ->
        let v = scrutinee fr in
        let run_from i =
          for j = i to n - 1 do
            bodies.(j) fr
          done
        in
        let rec find i =
          if i = n then run_from default
          else
            match labels.(i) with
            | Some label when Value.equal (label fr) v -> run_from i
            | _ -> find (i + 1)
        in
        (try find 0 with Break_exc -> ())
  | Ast.Sbreak -> fun _ -> raise Break_exc
  | Ast.Scontinue -> fun _ -> raise Continue_exc
  | Ast.Sreturn None -> fun _ -> raise (Return_exc Vnull)
  | Ast.Sreturn (Some e) ->
      let e = expr e in
      fun fr -> raise (Return_exc (e fr))

(* Loop and branch bodies get a scope of their own; a block brings one. *)
and compile_scoped cm chain (s : Ast.stmt) =
  match s with
  | Ast.Sblock _ -> compile_stmt cm chain s
  | _ ->
      let sc = new_scope cm (declared [ s ]) in
      enter_scope sc (compile_stmt cm (sc :: chain) s)

(* Compile every method of the program; a name defined twice keeps its
   last definition. *)
let compile ctx (prog : Ast.program) =
  let methods = Hashtbl.create 8 in
  List.iter
    (fun (def : Ast.meth) ->
      Hashtbl.replace methods def.Ast.m_name
        {
          def;
          arity = List.length def.Ast.m_params;
          params = [||];
          size = 0;
          body = ignore;
        })
    prog.Ast.methods;
  Hashtbl.iter
    (fun _ m ->
      let cm = { ctx; methods; slots = 0 } in
      let params =
        List.map (fun (p : Ast.param) -> p.Ast.p_name) m.def.Ast.m_params
      in
      let sc = new_scope cm (declared ~init:params m.def.Ast.m_body) in
      m.params <- Array.of_list (List.map (fun x -> List.assoc x sc) params);
      m.body <- seq (List.map (compile_stmt cm [ sc ]) m.def.Ast.m_body);
      m.size <- cm.slots)
    methods;
  methods

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

(* Shared by run/run_traced: compile, invoke the entry method and convert
   every interpreter exception into an outcome — never a raise. *)
let execute ctx prog entry args =
  let methods = compile ctx prog in
  match Hashtbl.find_opt methods entry with
  | None ->
      {
        stdout = "";
        result = None;
        steps = 0;
        error = Some (Printf.sprintf "no method named %s" entry);
      }
  | Some m ->
      let finished result error =
        { stdout = Buffer.contents ctx.out; result; steps = ctx.steps; error }
      in
      (match
         let n = List.length args in
         if n <> m.arity then
           fail "method %s expects %d arguments, got %d" entry m.arity n;
         let fr = Array.make m.size unbound in
         List.iteri (fun i v -> fr.(m.params.(i)) <- v) args;
         enter m fr
       with
      | v -> finished (Some v) None
      | exception Runtime_error msg -> finished None (Some msg)
      | exception Step_limit -> finished None (Some "step limit exceeded")
      | exception Fuel_exhausted -> finished None (Some "fuel budget exhausted"))

let new_ctx ?budget ~traced config =
  { config; budget; out = Buffer.create 256; steps = 0; traced; snapshots = [] }

let run ?budget ?(config = default_config) (prog : Ast.program) ~entry ~args
    =
  let out = execute (new_ctx ?budget ~traced:false config) prog entry args in
  (* Executed-step counter for the tracing layer: a no-op unless the
     ambient trace is enabled, and a single counter bump per run (never
     per step) when it is. *)
  Jfeed_trace.Trace.count (Jfeed_trace.Trace.current ()) "interp.steps"
    out.steps;
  out

let run_source ?budget ?config src ~entry ~args =
  run ?budget ?config (Parser.parse_program src) ~entry ~args

let run_traced ?budget ?(config = default_config) (prog : Ast.program)
    ~entry ~args =
  let ctx = new_ctx ?budget ~traced:true config in
  let outcome = execute ctx prog entry args in
  (outcome, List.rev ctx.snapshots)
