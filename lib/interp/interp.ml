(** Closure compiler for the Java subset.

    Replaces the JVM for functional testing: programs print to a captured
    stdout, read files from a virtual file system through
    [java.util.Scanner], and run under a step budget so that the
    infinite-loop submissions the paper worries about terminate with a
    distinguishable outcome instead of hanging the harness.

    Each run first compiles every method of the program into OCaml
    closures, resolving every local variable to a slot of a per-call
    {!frame}; running the entry method is then a tree of closure calls
    with no name lookup and no per-block allocation.  Code the compiler
    can prove [int] or [boolean] ({!kind_of}) compiles to closures that
    return an unboxed [int] or [bool], and steps are charged to the
    budget in bulk ({!tick}). *)

open Jfeed_java
open Value
module Budget = Jfeed_budget.Budget

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
  budget : Budget.t option;
      (** shared grading fuel pool; unlike [config.max_steps] (per run)
          it is spent across runs, unifying the interpreter's step
          budget with the matcher's and the pairing search's *)
  traced : bool;
      (** compile a name-sorted snapshot of the visible variables after
          every executed statement (CLARA-style variable traces) *)
  out : Buffer.t;
  mutable config : config;
  mutable steps : int;
  mutable limit : int;  (** the last step {!tick} takes without the budget *)
  mutable charged : int;  (** the steps spent from [budget] so far *)
  mutable snapshots : (string * string) list list;  (** newest first *)
  mutable ret : Value.t;  (** the value of the [return] being taken *)
  mutable ret_int : int;  (** ... from the typed body of an [int] method *)
}

exception Break_exc
exception Continue_exc

exception Return_exc
(* A [return] leaves its value in [ctx.ret] (or [ctx.ret_int]) and raises
   this constant: returning allocates nothing. *)

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* The heap bound.  An array allocation of more than [max_cells] cells
   fails as the JVM's does when the heap is too small for it, before
   anything is allocated.  The cells are the product of the dimensions,
   up to the first zero one: past it nothing is allocated. *)
let max_cells = 1 lsl 22

let rec check_cells n = function
  | d :: rest when d > 0 ->
      let n = n * d in
      if n > max_cells then fail "OutOfMemoryError: Java heap space"
      else check_cells n rest
  | _ -> ()

(* Steps are charged in bulk.  Up to [ctx.limit], {!tick} only counts:
   the limit is at most [max_steps], and the budget's headroom past the
   last charge, so no step before it could fail a spend or poll the
   deadline.  The step past the limit charges the steps counted since,
   in one spend that cannot fail or poll, then takes its own unit as a
   spend per step did: the step limit first, then one unit.  Steps,
   fuel per stage, hits and the deadline's poll points are those of one
   spend per step. *)
let charge ctx upto =
  (match ctx.budget with
  | Some b when upto > ctx.charged ->
      ignore (Budget.spend b Budget.Interp (upto - ctx.charged))
  | _ -> ());
  ctx.charged <- upto

let rearm ctx =
  let max = ctx.config.max_steps in
  ctx.limit <-
    (match ctx.budget with
    | Some b ->
        let room = Budget.headroom b in
        if room < max - ctx.steps then ctx.steps + room else max
    | None -> max)

let slow_tick ctx =
  charge ctx (ctx.steps - 1);
  ctx.charged <- ctx.steps;
  if ctx.steps > ctx.config.max_steps then raise Step_limit;
  (match ctx.budget with
  | Some b when not (Budget.spend b Budget.Interp 1) -> raise Fuel_exhausted
  | _ -> ());
  rearm ctx

let tick ctx =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.limit then slow_tick ctx

(* ------------------------------------------------------------------ *)
(* Numeric helpers (Java semantics)                                    *)

let as_number = function
  | Vint n -> `Int n
  | Vdouble f -> `Double f
  | Vchar c -> `Int (Char.code c)
  | v -> fail "expected a number, found %s" (type_name v)

(* Java [int] arithmetic on two ints; the result is wrapped. *)
let int_arith : Ast.binop -> int -> int -> int = function
  | Ast.Add -> fun x y -> wrap32 (x + y)
  | Ast.Sub -> fun x y -> wrap32 (x - y)
  | Ast.Mul -> fun x y -> wrap32 (x * y)
  | Ast.Div -> fun x y -> if y = 0 then fail "/ by zero" else wrap32 (x / y)
  | Ast.Mod -> fun x y -> if y = 0 then fail "%% by zero" else wrap32 (x mod y)
  | Ast.Bit_and -> fun x y -> wrap32 (x land y)
  | Ast.Bit_or -> fun x y -> wrap32 (x lor y)
  | Ast.Bit_xor -> fun x y -> wrap32 (x lxor y)
  | Ast.Shl -> fun x y -> wrap32 (x lsl (y land 31))
  | Ast.Shr -> fun x y -> wrap32 (x asr (y land 31))
  | Ast.Ushr -> fun x y -> wrap32 ((x land 0xFFFFFFFF) lsr (y land 31))
  | _ -> assert false

let int_compare : Ast.binop -> int -> int -> bool = function
  | Ast.Lt -> fun x y -> x < y
  | Ast.Le -> fun x y -> x <= y
  | Ast.Gt -> fun x y -> x > y
  | Ast.Ge -> fun x y -> x >= y
  | _ -> assert false

let arith op =
  let int_op = int_arith op in
  fun a b ->
    match (a, b) with
    | Vint x, Vint y -> vint (int_op x y)
    | _ -> (
        match (as_number a, as_number b) with
        | `Int x, `Int y -> vint (int_op x y)
        | (`Int _ | `Double _), (`Int _ | `Double _) -> (
            let x =
              match as_number a with `Int n -> float_of_int n | `Double f -> f
            in
            let y =
              match as_number b with `Int n -> float_of_int n | `Double f -> f
            in
            match op with
            | Ast.Add -> Vdouble (x +. y)
            | Ast.Sub -> Vdouble (x -. y)
            | Ast.Mul -> Vdouble (x *. y)
            | Ast.Div -> Vdouble (x /. y)
            | Ast.Mod -> Vdouble (Float.rem x y)
            | _ -> fail "bitwise operator on double"))

let compare_numbers op =
  let int_cmp = int_compare op in
  fun a b ->
    match (a, b) with
    | Vint x, Vint y -> int_cmp x y
    | _ -> (
        let x, y =
          match (as_number a, as_number b) with
          | `Int x, `Int y -> (float_of_int x, float_of_int y)
          | `Int x, `Double y -> (float_of_int x, y)
          | `Double x, `Int y -> (x, float_of_int y)
          | `Double x, `Double y -> (x, y)
        in
        match op with
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
  match Array.of_list (candidates chain x) with
  | [| s |] -> fun fr v -> if fr.(s) == unbound then undefined x else fr.(s) <- v
  | slots ->
      fun fr v ->
        let s = bound fr slots 0 in
        if s < 0 then undefined x else fr.(s) <- v

(* Reads of a name proven to hold one kind: each of its slots holds a
   value of that kind or is unbound. *)
let compile_lookup_int chain x : frame -> int =
  match Array.of_list (candidates chain x) with
  | [| s |] -> fun fr -> ( match fr.(s) with Vint n -> n | _ -> undefined x)
  | slots -> (
      fun fr ->
        let s = bound fr slots 0 in
        if s < 0 then undefined x
        else match fr.(s) with Vint n -> n | _ -> assert false)

let compile_lookup_bool chain x : frame -> bool =
  match Array.of_list (candidates chain x) with
  | [| s |] -> fun fr -> ( match fr.(s) with Vbool b -> b | _ -> undefined x)
  | slots -> (
      fun fr ->
        let s = bound fr slots 0 in
        if s < 0 then undefined x
        else match fr.(s) with Vbool b -> b | _ -> assert false)

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
(* Exact loop acceleration                                             *)

(* A loop whose straight-line int body moves its counter away from a
   loop-invariant bound keeps its guard true until the counter would
   wrap past the int range.  When the state at the loop start shows that
   the step limit or the fuel stops the run before that, the loop's
   remaining steps are charged in one spend and the error the loop
   would raise is raised at the step count it would reach: exact loop
   acceleration, limited to the case whose result is known without
   running it.  The body prints nothing, so stdout cannot tell, and no
   other variable is observable after the failure. *)
type endless = {
  counter : string;
  step : int;  (** the counter's change per iteration, away from [limit] *)
  op : Ast.binop;  (** the guard is [counter op limit] *)
  limit : Ast.expr;  (** over names the loop never writes *)
  touched : string list;  (** every name of an enclosing scope the loop touches *)
  ticks : int;  (** steps per iteration *)
}

(* Names of a pure int expression: literals, names, [+ - *] and unary
   minus; anything else is not pure. *)
let rec pure_names (e : Ast.expr) =
  match e with
  | Ast.Int_lit _ -> Some []
  | Ast.Var x -> Some [ x ]
  | Ast.Unary (Ast.Neg, e) -> pure_names e
  | Ast.Binary ((Ast.Add | Ast.Sub | Ast.Mul), a, b) -> (
      match (pure_names a, pure_names b) with
      | Some xs, Some ys -> Some (xs @ ys)
      | _ -> None)
  | _ -> None

(* An int literal, possibly negated, as the interpreter reads it. *)
let const_int (e : Ast.expr) =
  match e with
  | Ast.Int_lit n -> Some (wrap32 n)
  | Ast.Unary (Ast.Neg, Ast.Int_lit n) -> Some (wrap32 (-wrap32 n))
  | _ -> None

(* The change a write [e] makes to [x] when it adds a constant, unwrapped:
   [x -= k] steps by [-k] even when [k] is the least int. *)
let const_step x (e : Ast.expr) =
  match e with
  | Ast.Incdec ((Ast.Pre_incr | Ast.Post_incr), _) -> Some 1
  | Ast.Incdec ((Ast.Pre_decr | Ast.Post_decr), _) -> Some (-1)
  | Ast.Assign (Ast.Add_eq, _, k) -> const_int k
  | Ast.Assign (Ast.Sub_eq, _, k) -> Option.map Int.neg (const_int k)
  | Ast.Assign (Ast.Set, _, Ast.Binary (Ast.Add, Ast.Var y, k)) when y = x ->
      const_int k
  | Ast.Assign (Ast.Set, _, Ast.Binary (Ast.Sub, Ast.Var y, k)) when y = x ->
      Option.map Int.neg (const_int k)
  | _ -> None

let flip = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

(* The compile-time half.  [guard] compares a counter with a pure int
   bound over names the loop never writes.  One iteration ([body], then
   [update]) runs only empty statements, [int] declarations and int
   writes to names ([x = e], [x += e], [x -= e], [x *= e], [x++] ...),
   and writes the counter once, by a constant that moves it away from
   the bound.  [chain] is the scope chain of the guard and the update;
   the body's own declarations shadow none of its names and run before
   any use in the iteration, and every name resolves to a slot. *)
let endless_loop chain (guard : Ast.expr) (body : Ast.stmt) update =
  let outer x = candidates chain x <> [] in
  let names e = match pure_names e with Some xs -> xs | None -> raise Exit in
  (* An int write: its target and every name it touches. *)
  let write (e : Ast.expr) =
    match e with
    | Ast.Assign
        ((Ast.Set | Ast.Add_eq | Ast.Sub_eq | Ast.Mul_eq), Ast.Var x, rhs) ->
        (x, x :: names rhs)
    | Ast.Incdec (_, Ast.Var x) -> (x, [ x ])
    | _ -> raise Exit
  in
  (* One tick for the iteration, one per statement, one for a block. *)
  let stmts, ticks =
    match body with
    | Ast.Sblock stmts -> (stmts, 2 + List.length stmts)
    | s -> ([ s ], 2)
  in
  try
    let op, a, b =
      match guard with
      | Ast.Binary (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) ->
          (op, a, b)
      | _ -> raise Exit
    in
    let touched = ref (names a @ names b) in
    if (not (List.for_all outer !touched)) || List.exists outer (declared stmts)
    then raise Exit;
    let bound_so_far = ref [] and writes = ref [] in
    let use visible xs =
      if not (List.for_all visible xs) then raise Exit;
      touched := List.filter outer xs @ !touched
    in
    let in_body x = outer x || List.mem x !bound_so_far in
    List.iter
      (function
        | Ast.Sempty -> ()
        | Ast.Sdecl ds ->
            List.iter
              (fun (d : Ast.var_decl) ->
                if d.Ast.d_type <> Ast.Tprim "int" then raise Exit;
                Option.iter (fun e -> use in_body (names e)) d.Ast.d_init;
                bound_so_far := d.Ast.d_name :: !bound_so_far)
              ds
        | Ast.Sexpr e ->
            let x, xs = write e in
            use in_body xs;
            writes := (x, e) :: !writes
        | _ -> raise Exit)
      stmts;
    List.iter
      (fun e ->
        let x, xs = write e in
        use outer xs;
        writes := (x, e) :: !writes)
      update;
    let written x = List.mem_assoc x !writes in
    let found counter op limit =
      let step =
        match List.filter (fun (x, _) -> x = counter) !writes with
        | [ (_, e) ] when not (List.exists written (names limit)) -> (
            match (const_step counter e, op) with
            | Some s, (Ast.Lt | Ast.Le) when s < 0 -> Some s
            | Some s, (Ast.Gt | Ast.Ge) when s > 0 -> Some s
            | _ -> None)
        | _ -> None
      in
      Option.map
        (fun step ->
          let touched = List.sort_uniq compare !touched in
          { counter; step; op; limit; touched; ticks })
        step
    in
    let flipped () =
      match b with Ast.Var i -> found i (flip op) a | _ -> None
    in
    match a with
    | Ast.Var i -> ( match found i op b with None -> flipped () | p -> p)
    | _ -> flipped ()
  with Exit -> None

(* The run-time half, once per loop start: when every name the loop
   touches is bound to an int, the guard holds, and the failing tick
   comes before the counter would wrap, charge the steps up to it and
   raise its error.  Otherwise return, and the loop runs. *)
let accelerate ctx chain p (limit : frame -> Value.t) : frame -> unit =
  let slots x = Array.of_list (candidates chain x) in
  let counter = slots p.counter and touched = List.map slots p.touched in
  let is_int fr slots =
    let s = bound fr slots 0 in
    s >= 0 && match fr.(s) with Vint _ -> true | _ -> false
  in
  let holds i b =
    match p.op with
    | Ast.Lt -> i < b
    | Ast.Le -> i <= b
    | Ast.Gt -> i > b
    | _ -> i >= b
  in
  fun fr ->
    if List.for_all (is_int fr) touched then begin
      (* Every step so far is charged, so [Budget.remaining] counts
         them; the budget is live, because the loop statement's own
         tick has just run. *)
      charge ctx ctx.steps;
      let i = as_int fr.(bound fr counter 0) in
      (* The guard holds in every iteration whose counter is unwrapped. *)
      let iterations =
        if p.step < 0 then ((i + 0x8000_0000) / -p.step) + 1
        else ((0x7FFF_FFFF - i) / p.step) + 1
      in
      let steps_left = ctx.config.max_steps - ctx.steps in
      (* The failing tick, counted from the loop start, and the fuel
         spent up to it.  The step limit wins a tie, because [tick]
         checks it before it spends. *)
      let fails_at, error, spend =
        match Option.bind ctx.budget Budget.remaining with
        | Some f when f < steps_left -> (f + 1, Fuel_exhausted, f + 1)
        | _ -> (steps_left + 1, Step_limit, steps_left)
      in
      if holds i (as_int (limit fr)) && fails_at <= iterations * p.ticks then begin
        let error =
          match ctx.budget with
          | Some b when spend > 0 && not (Budget.spend b Budget.Interp spend)
            ->
              (* The fuel ran out, or the spend polled a passed deadline. *)
              ctx.steps <- ctx.steps + spend;
              Fuel_exhausted
          | _ ->
              ctx.steps <- ctx.steps + fails_at;
              error
        in
        ctx.charged <- ctx.steps;
        raise error
      end
    end

(* ------------------------------------------------------------------ *)
(* Static kinds                                                        *)

(* An expression of kind [Kint] evaluates to a [Vint] and one of kind
   [Kbool] to a [Vbool], whenever it evaluates without raising; such an
   expression compiles to a closure returning an unboxed [int] or
   [bool].  Declared types do not bind runtime values here ([int s = 0;
   s += 1.5;] leaves a double in [s]), so a local is proven to hold one
   kind only when every declaration of its name in the method has that
   type and every write to it is of that kind. *)
type kind = Kint | Kbool

let kind_of_typ = function
  | Ast.Tprim "int" -> Some Kint
  | Ast.Tprim "boolean" -> Some Kbool
  | _ -> None

(* What the kind analysis reads of a method body: every declaration,
   every write to a name, and every [return]. *)
type facts = {
  decls : (string * Ast.typ * Ast.expr option) list;
  writes : (string * [ `Set of Ast.expr | `Op of Ast.expr | `Step ]) list;
  returns : Ast.expr option list;
}

let facts (def : Ast.meth) =
  let decls = ref [] and writes = ref [] and returns = ref [] in
  let write x w = writes := (x, w) :: !writes in
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.Int_lit _ | Ast.Double_lit _ | Ast.Bool_lit _ | Ast.Char_lit _
    | Ast.Str_lit _ | Ast.Null_lit | Ast.Var _ ->
        ()
    | Ast.Field (e, _) | Ast.Unary (_, e) | Ast.Cast (_, e) -> expr e
    | Ast.Incdec (_, e) ->
        (match e with Ast.Var x -> write x `Step | _ -> ());
        expr e
    | Ast.Assign (op, a, b) ->
        (match a with
        | Ast.Var x -> write x (if op = Ast.Set then `Set b else `Op b)
        | _ -> ());
        expr a;
        expr b
    | Ast.Index (a, b) | Ast.Binary (_, a, b) ->
        expr a;
        expr b
    | Ast.Call (recv, _, args) ->
        Option.iter expr recv;
        List.iter expr args
    | Ast.New (_, es) | Ast.New_array (_, es) | Ast.Array_lit es ->
        List.iter expr es
    | Ast.Ternary (a, b, c) ->
        expr a;
        expr b;
        expr c
  in
  let rec stmt (s : Ast.stmt) =
    match s with
    | Ast.Sdecl ds ->
        List.iter
          (fun (d : Ast.var_decl) ->
            decls := (d.Ast.d_name, d.Ast.d_type, d.Ast.d_init) :: !decls;
            Option.iter expr d.Ast.d_init)
          ds
    | Ast.Sexpr e -> expr e
    | Ast.Sif (c, t, e) ->
        expr c;
        stmt t;
        Option.iter stmt e
    | Ast.Swhile (c, b) ->
        expr c;
        stmt b
    | Ast.Sdo (b, c) ->
        stmt b;
        expr c
    | Ast.Sfor (init, c, update, b) ->
        (match init with
        | Some (Ast.For_decl ds) -> stmt (Ast.Sdecl ds)
        | Some (Ast.For_exprs es) -> List.iter expr es
        | None -> ());
        Option.iter expr c;
        List.iter expr update;
        stmt b
    | Ast.Sswitch (e, cases) ->
        expr e;
        List.iter
          (fun (k : Ast.switch_case) ->
            Option.iter expr k.Ast.case_label;
            List.iter stmt k.Ast.case_body)
          cases
    | Ast.Sreturn r ->
        returns := r :: !returns;
        Option.iter expr r
    | Ast.Sblock ss -> List.iter stmt ss
    | Ast.Sbreak | Ast.Scontinue | Ast.Sempty -> ()
  in
  List.iter stmt def.Ast.m_body;
  { decls = !decls; writes = !writes; returns = !returns }

(* A statement that cannot complete normally because every path through
   it reaches a [return]. *)
let rec leaves (s : Ast.stmt) =
  match s with
  | Ast.Sreturn _ -> true
  | Ast.Sblock ss -> List.exists leaves ss
  | Ast.Sif (_, t, Some e) -> leaves t && leaves e
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

(* What a kind rests on: that a name of a method holds [kind], or that a
   method returns it.  A premise holds until an obligation on it fails,
   and [waiters] are the obligations whose check read it. *)
type premise = {
  kind : kind;
  mutable holds : bool;
  mutable waiters : obligation list;
}

(* [owner] holds only while [expr], read in [scope]'s typed body, has the
   owner's kind: an initializer or write of a name, or a [return]. *)
and obligation = { owner : premise; scope : meth; expr : Ast.expr }

and meth = {
  def : Ast.meth;
  arity : int;
  kinds : kind option list;  (** each parameter's declared kind *)
  facts : facts;
  names : (string, premise) Hashtbl.t;
      (** names the typed body proves, its parameters of a declared kind
          assumed to hold that kind: those whose premise holds *)
  mutable returns : premise option;  (** the typed return, while analysed *)
  mutable ret : kind option;
      (** the typed body returns an [int] in [ctx.ret_int], or a
          [boolean] *)
  mutable params : int array;  (** slot of each parameter, in order *)
  mutable size : int;  (** frame slots *)
  mutable checks : (int * kind) array;
      (** the slot and kind of each parameter the typed body assumes *)
  mutable body : frame -> unit;  (** the typed body *)
  mutable generic : frame -> unit;  (** assumes nothing of the arguments *)
}

let holding = function Some p when p.holds -> Some p | _ -> None

let proven names x = Option.map (fun p -> p.kind) (holding (Hashtbl.find_opt names x))

(* The kind of a premise that holds, which [use] hears of. *)
let read ~use premise =
  match holding premise with
  | Some p ->
      use p;
      Some p.kind
  | None -> None

(* The kind of [e] in [m]'s typed body; [use] hears of every premise the
   answer read.  Should one of them stop holding, the answer becomes
   [None]. *)
let rec kind_of methods (m : meth) ~use (e : Ast.expr) =
  let kind = kind_of methods m ~use in
  let is k e = kind e = Some k in
  match e with
  | Ast.Int_lit _
  | Ast.Field (Ast.Var "Integer", ("MAX_VALUE" | "MIN_VALUE"))
  | Ast.Field (_, "length")
  | Ast.Unary (Ast.Bit_not, _)
  | Ast.Cast (Ast.Tprim ("int" | "long" | "short" | "byte"), _) ->
      Some Kint
  | Ast.Bool_lit _ | Ast.Unary (Ast.Not, _)
  | Ast.Binary
      ( ( Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And
        | Ast.Or ),
        _,
        _ ) ->
      Some Kbool
  | Ast.Var x -> read ~use (Hashtbl.find_opt m.names x)
  | Ast.Binary (_, a, b) -> if is Kint a && is Kint b then Some Kint else None
  | Ast.Unary (Ast.Neg, a) -> if is Kint a then Some Kint else None
  | Ast.Unary (Ast.Uplus, a) -> kind a
  | Ast.Incdec (_, Ast.Var x) | Ast.Assign (_, Ast.Var x, _) -> (
      match read ~use (Hashtbl.find_opt m.names x) with
      | Some Kint -> Some Kint
      | Some Kbool -> (
          match e with Ast.Assign (Ast.Set, _, _) -> Some Kbool | _ -> None)
      | None -> None)
  | Ast.Ternary (_, t, f) -> (
      match kind t with Some k when is k f -> Some k | _ -> None)
  | Ast.Call (None, name, args) -> (
      match Hashtbl.find_opt methods name with
      | Some callee
        when List.length args = callee.arity
             && List.for_all2
                  (fun k a -> k = None || kind a = k)
                  callee.kinds args ->
          read ~use callee.returns
      | _ -> None)
  | Ast.Cast (Ast.Tprim ("double" | "float" | "char"), _) -> None
  | Ast.Cast (_, a) -> kind a
  | _ -> None

(* The greatest assignment of proven names and typed returns to the
   methods.  A name starts out holding when every declaration of it in
   its method, parameters included, has the same kind, and a [boolean]
   is never stepped or compound-assigned; a return, when the method is
   declared [int] or [boolean] and every path through it ends in a
   [return] of a value.  A premise stops holding when one of its
   obligations fails.  A checked obligation waits on the premises it
   read and is checked again only when one of them stops holding, so
   the analysis is linear in the program's size. *)
let analyse methods =
  let pending = ref [] in
  Hashtbl.iter
    (fun _ m ->
      let declare x t =
        match (Hashtbl.find_opt m.names x, kind_of_typ t) with
        | None, k ->
            (* A name declared with a type of no kind never holds. *)
            Hashtbl.replace m.names x
              { kind = Option.value k ~default:Kint; holds = k <> None; waiters = [] }
        | Some p, k -> if k <> Some p.kind then p.holds <- false
      in
      List.iter (fun (p : Ast.param) -> declare p.Ast.p_name p.Ast.p_type) m.def.Ast.m_params;
      List.iter (fun (x, t, _) -> declare x t) m.facts.decls;
      m.returns <-
        Option.map
          (fun kind -> { kind; holds = true; waiters = [] })
          (if
             List.exists leaves m.def.Ast.m_body
             && List.for_all Option.is_some m.facts.returns
           then kind_of_typ m.def.Ast.m_ret
           else None);
      let oblige owner expr = pending := { owner; scope = m; expr } :: !pending in
      let name x = holding (Hashtbl.find_opt m.names x) in
      List.iter
        (fun (x, _, init) ->
          match (init, name x) with Some e, Some p -> oblige p e | _ -> ())
        m.facts.decls;
      List.iter
        (fun (x, w) ->
          match (w, name x) with
          | (`Set e | `Op e), Some ({ kind = Kint; _ } as p) | `Set e, Some p ->
              oblige p e
          | (`Op _ | `Step), Some ({ kind = Kbool; _ } as p) -> p.holds <- false
          | _ -> ())
        m.facts.writes;
      Option.iter
        (fun p -> List.iter (Option.iter (oblige p)) m.facts.returns)
        m.returns)
    methods;
  let rec settle = function
    | [] -> ()
    | o :: rest ->
        if
          o.owner.holds
          && kind_of methods o.scope
               ~use:(fun p -> p.waiters <- o :: p.waiters)
               o.expr
             <> Some o.owner.kind
        then begin
          o.owner.holds <- false;
          let waiters = o.owner.waiters in
          o.owner.waiters <- [];
          settle (List.rev_append waiters rest)
        end
        else settle rest
  in
  settle !pending;
  Hashtbl.iter
    (fun _ m -> m.ret <- Option.map (fun p -> p.kind) (holding m.returns))
    methods

(* Run a method body on its frame, leaving the returned value in [ctx].
   A [break] or [continue] that leaves the body is the runtime form of
   javac's compile error: it fails the call instead of leaking into the
   caller's loop. *)
let invoke (ctx : ctx) body fr =
  match body fr with
  | () -> ctx.ret <- Vnull
  | exception Return_exc -> ()
  | exception Break_exc -> fail "break outside switch or loop"
  | exception Continue_exc -> fail "continue outside of loop"

(* The arguments in [fr] have the kinds the typed body assumes. *)
let fits m (fr : frame) =
  let rec go i =
    i = Array.length m.checks
    ||
    let s, k = m.checks.(i) in
    (match (fr.(s), k) with
    | Vint _, Kint | Vbool _, Kbool -> true
    | _ -> false)
    && go (i + 1)
  in
  go 0

(* A call from code that needs a [Value.t]. *)
let call (ctx : ctx) m fr =
  if fits m fr then begin
    invoke ctx m.body fr;
    match m.ret with Some Kint -> vint ctx.ret_int | _ -> ctx.ret
  end
  else begin
    invoke ctx m.generic fr;
    ctx.ret
  end

type compiler = {
  ctx : ctx;
  methods : (string, meth) Hashtbl.t;
  names : (string, premise) Hashtbl.t;  (** the body's proven names ({!proven}) *)
  returning : kind option;  (** how the body's [return]s leave their value *)
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

(* Compiled code, by the kind {!kind_of} gives the expression: an
   unboxed [int], an unboxed [bool], or any value. *)
type code =
  | Int of (frame -> int)
  | Bool of (frame -> bool)
  | Any of (frame -> Value.t)

(* [e]'s code [c] where a [Value.t] is needed: a variable or a literal
   shares its box, other typed code is boxed once. *)
let value chain (e : Ast.expr) c : frame -> Value.t =
  match (e, c) with
  | (Ast.Var x, _) -> compile_lookup chain x
  | (Ast.Int_lit n, _) ->
      let v = vint n in
      fun _ -> v
  | (_, Int f) -> fun fr -> vint (f fr)
  | (_, Bool f) -> fun fr -> of_bool (f fr)
  | (_, Any f) -> f

let rec compile_expr cm chain e = value chain e (compile_code cm chain e)

(* [e] where an array subscript or dimension is needed ({!as_int}). *)
and compile_int cm chain e : frame -> int =
  match compile_code cm chain e with
  | Int f -> f
  | c ->
      let g = value chain e c in
      fun fr -> as_int (g fr)

(* [e] where a condition is needed ({!as_bool}). *)
and compile_bool cm chain e : frame -> bool =
  match compile_code cm chain e with
  | Bool f -> f
  | c ->
      let g = value chain e c in
      fun fr -> as_bool (g fr)

(* [e] evaluated for its effect. *)
and compile_effect cm chain e : frame -> unit =
  match compile_code cm chain e with
  | Int f -> fun fr -> ignore (f fr)
  | Bool f -> fun fr -> ignore (f fr)
  | Any f -> fun fr -> ignore (f fr)

(* One pass over the expression, bottom-up: each node's code has the
   kind {!kind_of} gives it, typed where its operands' codes are. *)
and compile_code cm chain (e : Ast.expr) : code =
  let code = compile_code cm chain and expr = compile_expr cm chain in
  let ctx = cm.ctx in
  let const v = Any (fun _ -> v) in
  match e with
  | Ast.Int_lit n ->
      let n = wrap32 n in
      Int (fun _ -> n)
  | Ast.Bool_lit b -> Bool (fun _ -> b)
  | Ast.Double_lit f -> const (Vdouble f)
  | Ast.Char_lit c -> const (Vchar c)
  | Ast.Str_lit s -> const (Vstr s)
  | Ast.Null_lit -> const Vnull
  | Ast.Var x -> (
      match proven cm.names x with
      | Some Kint -> Int (compile_lookup_int chain x)
      | Some Kbool -> Bool (compile_lookup_bool chain x)
      | None -> Any (compile_lookup chain x))
  | Ast.Field (Ast.Var "Integer", "MAX_VALUE") -> Int (fun _ -> 0x7FFFFFFF)
  | Ast.Field (Ast.Var "Integer", "MIN_VALUE") -> Int (fun _ -> -0x80000000)
  | Ast.Field (obj, "length") ->
      let obj = expr obj in
      Int
        (fun fr ->
          match obj fr with
          | Varr a -> Array.length a
          | Vnull -> fail "NullPointerException (.length)"
          | v -> fail "%s has no field length" (type_name v))
  | Ast.Field (Ast.Var "Math", "PI") -> const (Vdouble Float.pi)
  | Ast.Field (Ast.Var "System", "out") ->
      (* only meaningful as a call receiver *)
      const Vnull
  | Ast.Field (_, fld) -> Any (fun _ -> fail "unsupported field access .%s" fld)
  | Ast.Index (arr, idx) ->
      let arr = expr arr and idx = compile_int cm chain idx in
      Any
        (fun fr ->
          let a = arr fr in
          let i = idx fr in
          match a with
          | Varr elems ->
              if i < 0 || i >= Array.length elems then
                fail "Index %d out of bounds for length %d" i
                  (Array.length elems)
              else elems.(i)
          | Vnull -> fail "NullPointerException (array access)"
          | v -> fail "cannot index a %s" (type_name v))
  | Ast.Call (None, name, args) -> compile_user_call cm chain name args
  | Ast.Call (recv, name, args) -> Any (compile_call cm chain recv name args)
  | Ast.New (Tclass "File", [ path ]) -> Any (expr path)
  | Ast.New (Tclass "Scanner", [ src ]) ->
      let src = expr src in
      Any
        (fun fr ->
          match src fr with
          | Vstr path -> (
              match List.assoc_opt path ctx.config.files with
              | Some content ->
                  Vscanner { tokens = split_tokens content; closed = false }
              | None -> fail "FileNotFoundException: %s" path)
          | v -> fail "cannot build a Scanner from a %s" (type_name v))
  | Ast.New (t, _) ->
      let t = Ast.string_of_typ t in
      Any (fun _ -> fail "cannot instantiate %s" t)
  | Ast.New_array (t, dims) ->
      let dims = List.map (compile_int cm chain) dims in
      let rec build = function
        | [] -> default_value t
        | d :: rest ->
            if d < 0 then fail "NegativeArraySizeException: %d" d
            else Varr (Array.init d (fun _ -> build rest))
      in
      Any
        (fun fr ->
          let ds = List.map (fun d -> d fr) dims in
          if List.for_all (fun d -> d >= 0) ds then check_cells 1 ds;
          build ds)
  | Ast.Array_lit elts ->
      let elts = List.map expr elts in
      Any (fun fr -> Varr (Array.of_list (List.map (fun c -> c fr) elts)))
  | Ast.Unary (Ast.Neg, a) -> (
      match code a with
      | Int a -> Int (fun fr -> wrap32 (-a fr))
      | c ->
          let a = value chain a c in
          Any
            (fun fr ->
              match as_number (a fr) with
              | `Int n -> vint (-n)
              | `Double f -> Vdouble (-.f)))
  | Ast.Unary (Ast.Uplus, a) -> code a
  | Ast.Unary (Ast.Not, a) ->
      let a = compile_bool cm chain a in
      Bool (fun fr -> not (a fr))
  | Ast.Unary (Ast.Bit_not, a) ->
      let a = compile_int cm chain a in
      Int (fun fr -> wrap32 (lnot (a fr)))
  | Ast.Incdec (kind, target) -> (
      let delta =
        match kind with
        | Ast.Pre_incr | Ast.Post_incr -> 1
        | Ast.Pre_decr | Ast.Post_decr -> -1
      in
      let pre =
        match kind with
        | Ast.Pre_incr | Ast.Pre_decr -> true
        | Ast.Post_incr | Ast.Post_decr -> false
      in
      let set = compile_store cm chain target in
      match target with
      | Ast.Var x when proven cm.names x = Some Kint ->
          let get = compile_lookup_int chain x in
          Int
            (fun fr ->
              let n = get fr in
              let m = wrap32 (n + delta) in
              set fr (vint m);
              if pre then m else n)
      | _ ->
          (* The target is read, then stored: subscripts are evaluated
             twice. *)
          let get = expr target in
          Any
            (fun fr ->
              let old = get fr in
              let updated =
                match as_number old with
                | `Int n -> vint (n + delta)
                | `Double f -> Vdouble (f +. float_of_int delta)
              in
              set fr updated;
              if pre then updated else old))
  | Ast.Binary (Ast.And, a, b) ->
      let a = compile_bool cm chain a and b = compile_bool cm chain b in
      Bool (fun fr -> a fr && b fr)
  | Ast.Binary (Ast.Or, a, b) ->
      let a = compile_bool cm chain a and b = compile_bool cm chain b in
      Bool (fun fr -> a fr || b fr)
  | Ast.Binary (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) -> (
      match (code a, code b) with
      | Int x, Int y ->
          let f = int_compare op in
          Bool
            (fun fr ->
              let x = x fr in
              let y = y fr in
              f x y)
      | ca, cb ->
          let a = value chain a ca and b = value chain b cb in
          let f = compare_numbers op in
          Bool
            (fun fr ->
              let va = a fr in
              let vb = b fr in
              f va vb))
  | Ast.Binary (((Ast.Eq | Ast.Ne) as op), a, b) ->
      let eq =
        match (code a, code b) with
        | Int x, Int y ->
            fun fr ->
              let x = x fr in
              let y = y fr in
              Int.equal x y
        | Bool x, Bool y ->
            fun fr ->
              let x = x fr in
              let y = y fr in
              Bool.equal x y
        | ca, cb ->
            let a = value chain a ca and b = value chain b cb in
            fun fr ->
              let va = a fr in
              let vb = b fr in
              Value.equal va vb
      in
      Bool (if op = Ast.Eq then eq else fun fr -> not (eq fr))
  | Ast.Binary (op, a, b) -> (
      match (code a, code b) with
      | Int x, Int y ->
          let f = int_arith op in
          Int
            (fun fr ->
              let x = x fr in
              let y = y fr in
              f x y)
      | ca, cb ->
          let a = value chain a ca and b = value chain b cb in
          let f = arith op in
          let f =
            match op with
            | Ast.Add -> (
                fun va vb ->
                  match (va, vb) with
                  | Vstr _, _ | _, Vstr _ -> Vstr (to_display va ^ to_display vb)
                  | _ -> f va vb)
            | _ -> f
          in
          Any
            (fun fr ->
              let va = a fr in
              let vb = b fr in
              f va vb))
  | Ast.Assign (op, lhs, rhs) -> (
      let set = compile_store cm chain lhs in
      let proven =
        match lhs with Ast.Var x -> proven cm.names x | _ -> None
      in
      match (op, proven, code rhs) with
      | Ast.Set, Some Kint, Int r ->
          Int
            (fun fr ->
              let n = r fr in
              set fr (vint n);
              n)
      | Ast.Set, Some Kbool, Bool r ->
          Bool
            (fun fr ->
              let b = r fr in
              set fr (of_bool b);
              b)
      | Ast.Set, _, c ->
          (* The right-hand side runs before the target's subscripts. *)
          let rhs = value chain rhs c in
          Any
            (fun fr ->
              let v = rhs fr in
              set fr v;
              v)
      | _, Some Kint, Int r ->
          (* The right-hand side runs before the target is read. *)
          let get = compile_int cm chain lhs and f = int_arith (compound op) in
          Int
            (fun fr ->
              let y = r fr in
              let n = f (get fr) y in
              set fr (vint n);
              n)
      | _, _, c ->
          let bin = compound op in
          let rhs = value chain rhs c and get = expr lhs and f = arith bin in
          Any
            (fun fr ->
              let rv = rhs fr in
              let old = get fr in
              let final =
                match (bin, old) with
                | Ast.Add, Vstr _ -> Vstr (to_display old ^ to_display rv)
                | _ -> f old rv
              in
              set fr final;
              final))
  | Ast.Ternary (c, t, f) -> (
      let c = compile_bool cm chain c in
      match (code t, code f) with
      | Int t, Int f -> Int (fun fr -> if c fr then t fr else f fr)
      | Bool t, Bool f -> Bool (fun fr -> if c fr then t fr else f fr)
      | ct, cf ->
          let t = value chain t ct and f = value chain f cf in
          Any (fun fr -> if c fr then t fr else f fr))
  | Ast.Cast (Tprim ("int" | "long" | "short" | "byte"), a) -> (
      match code a with
      | Int f -> Int f
      | c ->
          let a = value chain a c in
          Int
            (fun fr ->
              match as_number (a fr) with
              | `Int n -> wrap32 n
              | `Double f -> wrap32 (int_of_float (Float.trunc f))))
  | Ast.Cast (Tprim ("double" | "float"), a) ->
      let a = expr a in
      Any (fun fr -> Vdouble (as_double (a fr)))
  | Ast.Cast (Tprim "char", a) ->
      let a = expr a in
      Any
        (fun fr ->
          match as_number (a fr) with
          | `Int n -> Vchar (Char.chr (n land 0xFF))
          | `Double f -> Vchar (Char.chr (int_of_float f land 0xFF)))
  | Ast.Cast (_, a) -> code a

(* A call of a method of the program.  With arguments of the kinds its
   typed body assumes, it enters that body directly, and an [int] or
   [boolean] result comes back unboxed; otherwise {!call} picks the
   body by the arguments' values. *)
and compile_user_call cm chain name args =
  let ctx = cm.ctx in
  match Hashtbl.find_opt cm.methods name with
  | Some m when List.length args = m.arity ->
      let codes = List.map (compile_code cm chain) args in
      let typed =
        List.for_all2
          (fun k c ->
            match (k, c) with
            | None, _ | Some Kint, Int _ | Some Kbool, Bool _ -> true
            | _ -> false)
          m.kinds codes
      in
      let args = Array.of_list (List.map2 (value chain) args codes) in
      let enter fr =
        tick ctx;
        invoke ctx m.body (frame_of m args fr)
      in
      (match (typed, m.ret) with
      | true, Some Kint ->
          Int
            (fun fr ->
              enter fr;
              ctx.ret_int)
      | true, Some Kbool ->
          Bool
            (fun fr ->
              enter fr;
              as_bool ctx.ret)
      | _ ->
          Any
            (fun fr ->
              tick ctx;
              call ctx m (frame_of m args fr)))
  | _ -> Any (compile_call cm chain None name args)

and compile_store cm chain (lhs : Ast.expr) : frame -> Value.t -> unit =
  match lhs with
  | Ast.Var x -> compile_update chain x
  | Ast.Index (arr, idx) ->
      let arr = compile_expr cm chain arr and idx = compile_int cm chain idx in
      fun fr v ->
        let a = arr fr in
        let i = idx fr in
        (match a with
        | Varr elems ->
            if i < 0 || i >= Array.length elems then
              fail "Index %d out of bounds for length %d" i (Array.length elems)
            else elems.(i) <- v
        | Vnull -> fail "NullPointerException (array store)"
        | other -> fail "cannot index a %s" (type_name other))
  | _ -> fun _ _ -> fail "unsupported assignment target"

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
      (* An unknown method, or a known one with the wrong arity: the
         other calls are {!compile_user_call}'s. *)
      match Hashtbl.find_opt cm.methods name with
      | None ->
          fun _ ->
            tick ctx;
            fail "unknown method %s" name
      | Some m ->
          let n = List.length args in
          fun fr ->
            tick ctx;
            List.iter (fun c -> ignore (c fr)) args;
            fail "method %s expects %d arguments, got %d" name m.arity n)

(* The callee's frame, its parameters bound to the arguments in order. *)
and frame_of m args fr =
  let callee = Array.make m.size unbound in
  for i = 0 to Array.length args - 1 do
    callee.(m.params.(i)) <- args.(i) fr
  done;
  callee

and compound = function
  | Ast.Add_eq -> Ast.Add
  | Ast.Sub_eq -> Ast.Sub
  | Ast.Mul_eq -> Ast.Mul
  | Ast.Div_eq -> Ast.Div
  | Ast.Mod_eq -> Ast.Mod
  | Ast.Set -> assert false

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
  let cond = compile_bool cm chain in
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
  | Ast.Sexpr e -> compile_effect cm chain e
  | Ast.Sif (c, then_, None) ->
      let c = cond c and then_ = scoped then_ in
      fun fr -> if c fr then then_ fr
  | Ast.Sif (c, then_, Some else_) ->
      let c = cond c and then_ = scoped then_ and else_ = scoped else_ in
      fun fr -> if c fr then then_ fr else else_ fr
  | Ast.Swhile (c, body) ->
      let endless = compile_endless cm chain c body [] in
      let c = cond c and body = scoped body in
      fun fr ->
        endless fr;
        (try
           while c fr do
             tick ctx;
             try body fr with Continue_exc -> ()
           done
         with Break_exc -> ())
  | Ast.Sdo (body, c) ->
      let c = cond c and body = scoped body in
      fun fr ->
        (try
           let continue_loop = ref true in
           while !continue_loop do
             tick ctx;
             (try body fr with Continue_exc -> ());
             continue_loop := c fr
           done
         with Break_exc -> ())
  | Ast.Sfor (init, c, update, body) ->
      let decls = match init with Some (Ast.For_decl ds) -> ds | _ -> [] in
      let sc = new_scope cm (declared [ Ast.Sdecl decls ]) in
      let chain = sc :: chain in
      let init =
        match init with
        | None -> fun _ -> ()
        | Some (Ast.For_decl decls) -> compile_stmt cm chain (Ast.Sdecl decls)
        | Some (Ast.For_exprs es) -> seq (List.map (compile_effect cm chain) es)
      in
      let check =
        match c with None -> fun _ -> true | Some c -> compile_bool cm chain c
      in
      let endless =
        match c with
        | Some c -> compile_endless cm chain c body update
        | None -> ignore
      in
      let update = seq (List.map (compile_effect cm chain) update) in
      let body = compile_scoped cm chain body in
      enter_scope sc (fun fr ->
          init fr;
          endless fr;
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
  | Ast.Sreturn None ->
      fun _ ->
        ctx.ret <- Vnull;
        raise Return_exc
  | Ast.Sreturn (Some e) -> (
      match cm.returning with
      | Some Kint ->
          let e = compile_int cm chain e in
          fun fr ->
            ctx.ret_int <- e fr;
            raise Return_exc
      | Some Kbool ->
          let e = cond e in
          fun fr ->
            ctx.ret <- of_bool (e fr);
            raise Return_exc
      | None ->
          let e = expr e in
          fun fr ->
            ctx.ret <- e fr;
            raise Return_exc)

(* A loop's acceleration check ({!accelerate}), or [ignore] when the
   loop does not qualify or the run is traced: snapshots need every
   step. *)
and compile_endless cm chain guard body update =
  if cm.ctx.traced then ignore
  else
    match endless_loop chain guard body update with
    | Some p -> accelerate cm.ctx chain p (compile_expr cm chain p.limit)
    | None -> ignore

(* Loop and branch bodies get a scope of their own; a block brings one. *)
and compile_scoped cm chain (s : Ast.stmt) =
  match s with
  | Ast.Sblock _ -> compile_stmt cm chain s
  | _ ->
      let sc = new_scope cm (declared [ s ]) in
      enter_scope sc (compile_stmt cm (sc :: chain) s)

(* One body of [m]: its statements under [names], its [return]s leaving
   their value as [returning] says.  Every body of a method numbers the
   same slots. *)
let compile_body ctx methods m ~names ~returning =
  let cm = { ctx; methods; names; returning; slots = 0 } in
  let params =
    List.map (fun (p : Ast.param) -> p.Ast.p_name) m.def.Ast.m_params
  in
  let sc = new_scope cm (declared ~init:params m.def.Ast.m_body) in
  m.params <- Array.of_list (List.map (fun x -> List.assoc x sc) params);
  let body = seq (List.map (compile_stmt cm [ sc ]) m.def.Ast.m_body) in
  m.size <- cm.slots;
  body

(* Compile every method of the program; a name defined twice keeps its
   last definition.  Each method gets its typed body now; a method whose
   typed body assumes argument kinds gets its generic body on the first
   call whose arguments do not fit.  That body proves no name: it runs
   wholly on boxed values. *)
let compile_methods ctx (prog : Ast.program) =
  let methods = Hashtbl.create 8 in
  List.iter
    (fun (def : Ast.meth) ->
      Hashtbl.replace methods def.Ast.m_name
        {
          def;
          arity = List.length def.Ast.m_params;
          kinds =
            List.map (fun (p : Ast.param) -> kind_of_typ p.Ast.p_type) def.Ast.m_params;
          facts = facts def;
          names = Hashtbl.create 8;
          returns = None;
          ret = None;
          params = [||];
          size = 0;
          checks = [||];
          body = ignore;
          generic = ignore;
        })
    prog.Ast.methods;
  analyse methods;
  Hashtbl.iter
    (fun _ m ->
      m.body <- compile_body ctx methods m ~names:m.names ~returning:m.ret;
      m.checks <-
        Array.of_list
          (List.concat
             (List.mapi
                (fun i k -> Option.fold ~none:[] ~some:(fun k -> [ (m.params.(i), k) ]) k)
                m.kinds));
      m.generic <-
        (if m.checks = [||] then m.body
         else fun fr ->
           let names = Hashtbl.create 1 in
           let body = compile_body ctx methods m ~names ~returning:None in
           m.generic <- body;
           body fr))
    methods;
  methods

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

type compiled = { ctx : ctx; methods : (string, meth) Hashtbl.t }

let prepare ?budget ~traced (prog : Ast.program) =
  let ctx =
    {
      budget;
      traced;
      out = Buffer.create 256;
      config = default_config;
      steps = 0;
      limit = 0;
      charged = 0;
      snapshots = [];
      ret = Vnull;
      ret_int = 0;
    }
  in
  { ctx; methods = compile_methods ctx prog }

let compile ?budget prog = prepare ?budget ~traced:false prog

(* Invoke the entry method on a fresh run state and convert every
   interpreter exception into an outcome — never a raise.  Every exit
   charges the steps that ran. *)
let execute ({ ctx; methods } : compiled) config entry args =
  ctx.config <- config;
  Buffer.clear ctx.out;
  ctx.steps <- 0;
  ctx.charged <- 0;
  ctx.snapshots <- [];
  rearm ctx;
  match Hashtbl.find_opt methods entry with
  | None ->
      {
        stdout = "";
        result = None;
        steps = 0;
        error = Some (Printf.sprintf "no method named %s" entry);
      }
  | Some m -> (
      let finished result error =
        charge ctx ctx.steps;
        { stdout = Buffer.contents ctx.out; result; steps = ctx.steps; error }
      in
      match
        let n = List.length args in
        if n <> m.arity then
          fail "method %s expects %d arguments, got %d" entry m.arity n;
        let fr = Array.make m.size unbound in
        List.iteri (fun i v -> fr.(m.params.(i)) <- v) args;
        call ctx m fr
      with
      | v -> finished (Some v) None
      | exception Runtime_error msg -> finished None (Some msg)
      | exception Step_limit -> finished None (Some "step limit exceeded")
      | exception Fuel_exhausted -> finished None (Some "fuel budget exhausted")
      | exception e ->
          charge ctx ctx.steps;
          raise e)

let run_compiled p ~config ~entry ~args =
  let out = execute p config entry args in
  (* Executed-step counter for the tracing layer: a no-op unless the
     ambient trace is enabled, and a single counter bump per run (never
     per step) when it is. *)
  Jfeed_trace.Trace.count (Jfeed_trace.Trace.current ()) "interp.steps"
    out.steps;
  out

let run ?budget ?(config = default_config) (prog : Ast.program) ~entry ~args =
  run_compiled (compile ?budget prog) ~config ~entry ~args

let run_source ?budget ?config src ~entry ~args =
  run ?budget ?config (Parser.parse_program src) ~entry ~args

let run_traced ?budget ?(config = default_config) (prog : Ast.program)
    ~entry ~args =
  let p = prepare ?budget ~traced:true prog in
  let outcome = execute p config entry args in
  (outcome, List.rev p.ctx.snapshots)
