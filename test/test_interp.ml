(** Tests for the Java-subset interpreter (the functional-testing
    substrate): arithmetic with Java int semantics, control flow, arrays,
    strings, Scanner over virtual files, the step budget, and variable
    tracing. *)

open Jfeed_interp

let run ?(config = Interp.default_config) ?(entry = "f") ~args src =
  Interp.run_source ~config src ~entry ~args

let out ?config ?entry ~args src =
  let o = run ?config ?entry ~args src in
  match o.Interp.error with
  | None -> o.Interp.stdout
  | Some e -> Alcotest.failf "unexpected runtime error: %s" e

let err ?config ?entry ~args src =
  match (run ?config ?entry ~args src).Interp.error with
  | Some e -> e
  | None -> Alcotest.fail "expected a runtime error"

let test_arith () =
  Alcotest.(check string)
    "basics" "17\n"
    (out ~args:[]
       "void f() { System.out.println(2 + 3 * 5); }");
  Alcotest.(check string)
    "division truncates" "-2\n"
    (out ~args:[] "void f() { System.out.println(-7 / 3); }");
  Alcotest.(check string)
    "modulo sign follows dividend" "-1\n"
    (out ~args:[] "void f() { System.out.println(-7 % 3); }");
  Alcotest.(check string)
    "int32 wrap-around" "-2147483648\n"
    (out ~args:[] "void f() { System.out.println(2147483647 + 1); }");
  Alcotest.(check string)
    "factorial overflow wraps like the JVM" "-288522240\n"
    (out ~args:[]
       "void f() { int p = 1; for (int i = 1; i <= 17; i++) p *= i; \
        System.out.println(p); }")

let test_division_by_zero () =
  Alcotest.(check string) "div" "/ by zero" (err ~args:[] "void f() { int x = 1 / 0; }")

let test_strings () =
  Alcotest.(check string)
    "concat" "n = 4\n"
    (out ~args:[] {|void f() { int n = 4; System.out.println("n = " + n); }|});
  Alcotest.(check string)
    "equals" "true false\n"
    (out ~args:[]
       {|void f() { String a = "x"; System.out.println(a.equals("x") + " " + a.equals("y")); }|});
  (* == on strings is reference equality: two distinct computed strings
     are never ==. *)
  Alcotest.(check string)
    "reference equality" "false\n"
    (out ~args:[]
       {|void f() { String a = "x" + ""; String b = "x" + ""; System.out.println(a == b); }|})

let test_arrays () =
  Alcotest.(check string)
    "new + store + length" "3 7\n"
    (out ~args:[]
       {|void f() { int[] a = new int[3]; a[1] = 7; System.out.println(a.length + " " + a[1]); }|});
  Alcotest.(check string)
    "array literal" "6\n"
    (out ~args:[]
       {|void f() { int[] a = {1, 2, 3}; System.out.println(a[0] + a[1] + a[2]); }|});
  Alcotest.(check bool)
    "out of bounds" true
    (String.length (err ~args:[] "void f() { int[] a = new int[2]; int x = a[5]; }") > 0)

let test_control_flow () =
  Alcotest.(check string)
    "break" "0 1 2 \n"
    (out ~args:[]
       {|void f() { for (int i = 0; i < 10; i++) { if (i == 3) break; System.out.print(i + " "); } System.out.println(""); }|});
  Alcotest.(check string)
    "continue" "1 3 \n"
    (out ~args:[]
       {|void f() { for (int i = 0; i < 4; i++) { if (i % 2 == 0) continue; System.out.print(i + " "); } System.out.println(""); }|});
  Alcotest.(check string)
    "ternary" "small\n"
    (out ~args:[]
       {|void f() { int x = 3; System.out.println(x < 5 ? "small" : "big"); }|});
  Alcotest.(check string)
    "switch with fallthrough to break" "two\n"
    (out ~args:[]
       {|void f() { int x = 2; switch (x) { case 1: System.out.println("one"); break; case 2: System.out.println("two"); break; default: System.out.println("other"); } }|})

let test_methods () =
  Alcotest.(check string)
    "helper call" "120\n"
    (out ~args:[ Value.Vint 5 ] ~entry:"main2"
       {|int fact(int n) { int f = 1; for (int i = 1; i <= n; i++) f *= i; return f; }
         void main2(int k) { System.out.println(fact(k)); }|});
  Alcotest.(check string)
    "recursion" "8\n"
    (out ~args:[ Value.Vint 6 ] ~entry:"main2"
       {|int fib(int n) { if (n <= 2) return 1; return fib(n - 1) + fib(n - 2); }
         void main2(int k) { System.out.println(fib(k)); }|})

let test_scanner () =
  let config =
    { Interp.files = [ ("data.txt", "alpha 42 beta\n7") ]; max_steps = 10_000 }
  in
  Alcotest.(check string)
    "token stream" "alpha-42-beta-7:done\n"
    (out ~config ~args:[]
       {|void f() {
           Scanner s = new Scanner(new File("data.txt"));
           String acc = "";
           String w = s.next();
           acc = acc + w + "-";
           int n = s.nextInt();
           acc = acc + n + "-";
           acc = acc + s.next() + "-" + s.nextInt();
           if (!s.hasNext())
             acc = acc + ":done";
           s.close();
           System.out.println(acc);
         }|});
  Alcotest.(check string)
    "missing file" "FileNotFoundException: nope.txt"
    (err ~args:[]
       {|void f() { Scanner s = new Scanner(new File("nope.txt")); }|});
  Alcotest.(check string)
    "type mismatch" "InputMismatchException: \"alpha\""
    (err ~config ~args:[]
       {|void f() { Scanner s = new Scanner(new File("data.txt")); int n = s.nextInt(); }|})

let test_step_limit () =
  let config = { Interp.files = []; max_steps = 500 } in
  Alcotest.(check string)
    "infinite loop cut" "step limit exceeded"
    (err ~config ~args:[] "void f() { while (true) { int x = 1; } }")

let test_math () =
  Alcotest.(check string)
    "pow and cast" "8\n"
    (out ~args:[] "void f() { System.out.println((int) Math.pow(2, 3)); }");
  Alcotest.(check string)
    "abs" "5\n"
    (out ~args:[] "void f() { System.out.println(Math.abs(-5)); }");
  Alcotest.(check string)
    "log10 digit count" "3\n"
    (out ~args:[]
       "void f() { System.out.println((int) Math.log10(123) + 1); }")

let test_scoping () =
  (* For-loop variables are scoped: two loops can redeclare i. *)
  Alcotest.(check string)
    "redeclared loop var" "01\n"
    (out ~args:[]
       {|void f() {
           for (int i = 0; i < 1; i++) System.out.print(i);
           for (int i = 1; i < 2; i++) System.out.print(i);
           System.out.println("");
         }|})

let test_incdec_semantics () =
  Alcotest.(check string)
    "post vs pre" "1 3\n"
    (out ~args:[]
       {|void f() { int i = 1; int a = i++; int b = ++i; System.out.println(a + " " + b); }|})

let test_trace () =
  let prog =
    Jfeed_java.Parser.parse_program
      "void f() { int x = 1; x = 2; int y = x; }"
  in
  let outcome, snaps = Interp.run_traced prog ~entry:"f" ~args:[] in
  Alcotest.(check bool) "no error" true (outcome.Interp.error = None);
  Alcotest.(check int) "one snapshot per statement" 3 (List.length snaps);
  (match List.rev snaps with
  | last :: _ ->
      Alcotest.(check (list (pair string string)))
        "final snapshot" [ ("x", "2"); ("y", "2") ] last
  | [] -> Alcotest.fail "no snapshots")

(* Property: the interpreter agrees with OCaml on random arithmetic. *)
let prop_arith_oracle =
  let gen =
    QCheck.Gen.(
      let* a = int_range (-1000) 1000 in
      let* b = int_range 1 100 in
      let* op = oneofl [ "+"; "-"; "*"; "/"; "%" ] in
      return (a, b, op))
  in
  QCheck.Test.make ~count:300 ~name:"arithmetic agrees with OCaml"
    (QCheck.make gen) (fun (a, b, op) ->
      let expect =
        match op with
        | "+" -> a + b
        | "-" -> a - b
        | "*" -> a * b
        | "/" -> a / b
        | _ -> a mod b
      in
      let src =
        Printf.sprintf "void f() { System.out.println(%d %s %d); }"
          a op b
      in
      out ~args:[] src = string_of_int expect ^ "\n")

(* ------------------------------------------------------------------ *)
(* Scope rules                                                         *)

(* Declarations inside switch cases live in the scope that holds the
   switch: they stay visible after it when they ran, and are simply
   absent when they did not. *)
let test_switch_case_scope () =
  let src =
    {|void f(int k) {
        switch (k) { case 1: int y = 3; break; default: break; }
        System.out.println(y);
      }|}
  in
  Alcotest.(check string) "declared case" "3\n" (out ~args:[ Value.Vint 1 ] src);
  Alcotest.(check string)
    "case not run" "variable y is not defined"
    (err ~args:[ Value.Vint 2 ] src)

let shadow_block =
  {|void f() { int x = 1; { System.out.print(x); int x = 2; System.out.println(x); } }|}

let shadow_loop =
  {|void f() {
      int x = 1;
      int i = 0;
      while (i < 2) { System.out.print(x); int x = 5 + i; System.out.println(x); i++; }
    }|}

(* A block-level redeclaration shadows only from the point it runs, and
   every iteration of a loop body starts with the body's own names
   unbound again. *)
let test_shadowing () =
  Alcotest.(check string) "block" "12\n" (out ~args:[] shadow_block);
  Alcotest.(check string) "loop body" "15\n16\n" (out ~args:[] shadow_loop);
  Alcotest.(check string)
    "parameter redeclared" "5\n"
    (out ~args:[]
       {|int g(int n) { int n = n + 1; return n; }
         void f() { System.out.println(g(4)); }|})

let test_shadowing_snapshots () =
  let snaps src =
    snd
      (Interp.run_traced (Jfeed_java.Parser.parse_program src) ~entry:"f"
         ~args:[])
  in
  let render = List.map (List.map (fun (x, v) -> x ^ "=" ^ v)) in
  Alcotest.(check (list (list string)))
    "block"
    [ [ "x=1" ]; [ "x=1" ]; [ "x=2" ]; [ "x=2" ]; [ "x=1" ] ]
    (render (snaps shadow_block));
  Alcotest.(check (list (list string)))
    "loop body"
    [
      [ "x=1" ]; [ "i=0"; "x=1" ];
      (* first iteration: the outer x until the body's own x runs *)
      [ "i=0"; "x=1" ]; [ "i=0"; "x=5" ]; [ "i=0"; "x=5" ]; [ "i=1"; "x=5" ];
      [ "i=1"; "x=1" ];
      (* second iteration: the body's x is unbound again *)
      [ "i=1"; "x=1" ]; [ "i=1"; "x=6" ]; [ "i=1"; "x=6" ]; [ "i=2"; "x=6" ];
      [ "i=2"; "x=1" ];
      (* the while statement itself *)
      [ "i=2"; "x=1" ];
    ]
    (render (snaps shadow_loop))

(* A break or continue that leaves its method is javac's compile error,
   reported as a runtime error of the call: it must neither escape [run]
   nor end a loop in the caller. *)
let test_stray_jumps () =
  let caller = {|void lab3p1(int k) { System.out.println(fact(k)); }|} in
  Alcotest.(check string)
    "break" "break outside switch or loop"
    (err ~entry:"lab3p1" ~args:[ Value.Vint 1 ] ("int fact(int n) { break; }\n" ^ caller));
  Alcotest.(check string)
    "continue" "continue outside of loop"
    (err ~entry:"lab3p1" ~args:[ Value.Vint 1 ]
       ("int fact(int n) { continue; }\n" ^ caller));
  let o =
    run ~args:[]
      {|int g(int n) { if (n == 2) { break; } return n; }
        void f() { int i = 0; while (i < 4) { System.out.print(g(i)); i++; } System.out.println(" done " + i); }|}
  in
  Alcotest.(check (pair string (option string)))
    "callee's break inside the caller's loop"
    ("01", Some "break outside switch or loop")
    (o.Interp.stdout, o.Interp.error)

(* ------------------------------------------------------------------ *)
(* Exact loop acceleration                                             *)

module Budget = Jfeed_budget.Budget

(* Everything observable about a run: the outcome's fields, then the
   budget's per-stage spend and hits.  [run_traced] never accelerates,
   so it is the reference for [run]. *)
let observe ?fuel ?(exhaust = false) ~traced ~config prog ~entry ~args =
  let budget =
    if exhaust then begin
      (* Exhausted by a deadline that passed before the run: no fuel
         axis tells. *)
      let b = Budget.create ~deadline_s:(-1.0) () in
      ignore (Budget.check b Budget.Matcher);
      Some b
    end
    else Option.map (fun fuel -> Budget.create ~fuel ()) fuel
  in
  let o =
    if traced then fst (Interp.run_traced ?budget ~config prog ~entry ~args)
    else Interp.run ?budget ~config prog ~entry ~args
  in
  let spend =
    match budget with
    | None -> []
    | Some b ->
        List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) (Budget.spent_by b)
        @ List.map Budget.string_of_stage (Budget.hits b)
  in
  [ o.Interp.stdout; Option.value o.error ~default:"-"; string_of_int o.steps;
    (match o.result with Some v -> Value.to_display v | None -> "-") ]
  @ spend

(* [run] agrees with [run_traced]; returns the observation. *)
let same_as_slow ?fuel ?exhaust ?(max_steps = 100) ?(entry = "f") ?(args = [])
    label src =
  let prog = Jfeed_java.Parser.parse_program src in
  let config = { Interp.files = []; max_steps } in
  let slow = observe ?fuel ?exhaust ~traced:true ~config prog ~entry ~args in
  Alcotest.(check (list string)) label slow
    (observe ?fuel ?exhaust ~traced:false ~config prog ~entry ~args);
  slow

let error_of obs = List.nth obs 1
let steps_of obs = int_of_string (List.nth obs 2)

let test_acceleration_cases () =
  let limit label src =
    Alcotest.(check string) label "step limit exceeded" (error_of (same_as_slow label src))
  in
  limit "for, i--" "void f() { int p = 1; for (int i = 1; i <= 5; i--) p *= i; }";
  limit "while, block body"
    "void f() { int i = 1; int p = 1; while (i <= 5) { p = p * i; int t = p + i; i--; } }";
  limit "+= k" "void f() { for (int i = 0; i >= 0; i += 3) { } }";
  limit "-= k, empty statement" "void f() { int i = 7; while (i < 10) { i -= 7; ; } }";
  limit "i = i + k, counter read in the body"
    "void f() { int s = 0; for (int i = 9; i > 8; i = i + 2) s += i; }";
  limit "flipped guard" "void f() { int x = 5; int i = 1; while (x >= i) { i--; } }";
  limit "bound over invariant names"
    "void f() { int a = 2; int b = 3; int i = 0; while (i < a * b - 1) { i--; } }";
  (* The counter would wrap within the step limit: the loop ends. *)
  Alcotest.(check string)
    "counter near Integer.MIN_VALUE" "2147483647\n"
    (List.hd
       (same_as_slow "near MIN_VALUE"
          "void f() { int i = -2147483647; while (i <= 0) { i -= 2; } System.out.println(i); }"));
  Alcotest.(check string)
    "unbound name read in the body" "variable y is not defined"
    (error_of
       (same_as_slow "unbound"
          "void f() { int x = 0; int i = 0; while (i >= 0) { i++; x = y; } int y = 0; }"));
  Alcotest.(check string)
    "body name used before its declaration" "variable t is not defined"
    (error_of
       (same_as_slow "use before declaration"
          "void f() { int i = 0; while (i >= 0) { t = i; int t = 1; i++; } }"));
  Alcotest.(check string)
    "initialiser reads a later declaration" "variable v is not defined"
    (error_of
       (same_as_slow "initialiser before declaration"
          "void f() { int i = 0; while (i >= 0) { int u = v + 1; int v = 2; i++; } }"));
  Alcotest.(check string)
    "update names a body declaration" "variable t is not defined"
    (error_of
       (same_as_slow "update scope"
          "void f() { for (int i = 0; i >= 0; t++) { int t = 0; i++; } }"));
  limit "shadowing declaration"
    "void f() { int t = 5; int i = 0; while (i >= 0) { int t = i; i++; } }";
  Alcotest.(check string)
    "a String in the body" "expected a number, found String"
    (error_of
       (same_as_slow "String"
          {|void f() { String s = "a"; int i = 0; while (i >= 0) { i++; s = s * 2; } }|}));
  Alcotest.(check string)
    "a String declared in the body" "expected a number, found null"
    (error_of
       (same_as_slow "String declaration"
          "void f() { int i = 0; while (i >= 0) { String s; s = s + 1; i++; } }"));
  Alcotest.(check string)
    "counter written more than once" "-"
    (error_of
       (same_as_slow "written more than once"
          "void f() { int i = 0; while (i >= 0) { i++; i -= 3; i++; } }"));
  Alcotest.(check string)
    "bound written in the body" "-"
    (error_of
       (same_as_slow "bound written"
          "void f() { int n = 5; int i = 0; while (i < n) { i--; n = n - 2; } }"))

(* Loops whose counter wraps one iteration before the step limit: 49
   iterations of 2 ticks (a [for] over an empty statement) or 3 ticks (a
   block of one statement) use every step but the failing one, so each
   loop ends and its method returns normally. *)
let test_acceleration_wrap () =
  let ends label ~max_steps src =
    let obs = same_as_slow ~max_steps label src in
    Alcotest.(check (pair string int)) label ("-", max_steps)
      (error_of obs, steps_of obs)
  in
  ends "upward for" ~max_steps:100
    "void f() { for (int i = 2147483599; i >= 0; i++) ; }";
  ends "downward for" ~max_steps:100
    "void f() { for (int i = -2147483600; i < 0; i--) ; }";
  ends "upward while" ~max_steps:149
    "void f() { int i = 2147483599; while (i >= 0) { i++; } }";
  ends "downward while" ~max_steps:149
    "void f() { int i = -2147483600; while (i < 0) { i--; } }"

(* The step count at the loop start is 2 (two statements ran) and the
   step limit 100, so 98 steps are left; fuel 100 leaves 98 units too.
   An exhausted budget stops the run at its first statement. *)
let test_acceleration_fuel () =
  let src = "void f() { int i = 0; while (i >= 0) { i++; } }" in
  let case fuel = same_as_slow ~fuel (Printf.sprintf "fuel %d" fuel) src in
  let below = case 99 and equal = case 100 and above = case 101 in
  Alcotest.(check (pair string int)) "fuel below" ("fuel budget exhausted", 100)
    (error_of below, steps_of below);
  Alcotest.(check (pair string int)) "fuel equal: the step limit wins"
    ("step limit exceeded", 101) (error_of equal, steps_of equal);
  Alcotest.(check (pair string int)) "fuel above" ("step limit exceeded", 101)
    (error_of above, steps_of above);
  let dead = same_as_slow ~exhaust:true "exhausted budget" src in
  Alcotest.(check (pair string int)) "exhausted budget" ("fuel budget exhausted", 1)
    (error_of dead, steps_of dead)

(* Sampled submissions of the four assignments whose helpers can count
   the wrong way, run plain and under budgets of several sizes with a
   small step limit. *)
let test_acceleration_corpus () =
  let limited = ref 0 in
  List.iter
    (fun id ->
      let b = Option.get (Jfeed_kb.Bundles.find id) in
      let suite = b.suite in
      List.iter
        (fun i ->
          let src = Jfeed_gen.Spec.source_of_index b.gen i in
          List.iter
            (fun (c : Jfeed_ftest.Runner.case) ->
              List.iter
                (fun fuel ->
                  let obs =
                    same_as_slow ?fuel ~max_steps:300 ~entry:suite.entry
                      ~args:c.args (Printf.sprintf "%s #%d" id i) src
                  in
                  if error_of obs = "step limit exceeded" then incr limited)
                [ None; Some 40; Some 200; Some 299; Some 1000 ])
            suite.cases)
        (Jfeed_gen.Spec.sample_indices b.gen ~n:12 ~seed:3))
    [ "esc-LAB-3-P1-V1"; "esc-LAB-3-P2-V1"; "esc-LAB-3-P3-V2"; "esc-LAB-3-P4-V2" ];
  Alcotest.(check bool) "some runs reach the step limit" true (!limited > 0)

(* The fast path itself: the slow path takes seconds for these steps. *)
let test_acceleration_speed () =
  let config = { Interp.files = []; max_steps = 100_000_000 } in
  let t0 = Sys.time () in
  let o =
    Interp.run_source ~config
      "void f() { int p = 1; for (int i = 1; i <= 10; i--) p *= i; }"
      ~entry:"f" ~args:[]
  in
  let cpu = Sys.time () -. t0 in
  Alcotest.(check (pair (option string) int)) "outcome"
    (Some "step limit exceeded", 100_000_001) (o.Interp.error, o.steps);
  if cpu >= 0.5 then Alcotest.failf "took %.2f s of CPU" cpu

(* ------------------------------------------------------------------ *)
(* Behaviour pinned over the generated corpus                          *)

(* Suite arguments are shared bundle values: copy arrays so a program
   that writes into its input cannot leak into the next run. *)
let rec copy_arg = function
  | Value.Varr a -> Value.Varr (Array.map copy_arg a)
  | v -> v

(* Everything observable about one assignment's corpus — stdout, error,
   steps and result of every run, the fuel accounting of a run cut
   halfway, and the variable snapshots — folded into one MD5.  Each
   generated sample and one fault-injected mutant of it run every suite
   case plain, under half the fuel they need, and traced. *)
let corpus_digest (b : Jfeed_kb.Bundles.t) =
  let module Budget = Jfeed_budget.Budget in
  let suite = b.suite in
  let buf = Buffer.create 4096 in
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  let add_outcome (o : Interp.outcome) =
    add o.stdout;
    add (Option.value o.error ~default:"-");
    add (string_of_int o.steps);
    add (match o.result with Some v -> Value.to_display v | None -> "-")
  in
  let programs =
    Jfeed_gen.Spec.sample_indices b.gen ~n:2 ~seed:5
    |> List.concat_map (fun i ->
           let src = Jfeed_gen.Spec.source_of_index b.gen i in
           match Jfeed_gen.Mutate.fault_inject ~seed:i src with
           | Some (mutant, _) -> [ src; mutant ]
           | None -> [ src ])
  in
  List.iter
    (fun src ->
      let prog = Jfeed_java.Parser.parse_program src in
      List.iter
        (fun (c : Jfeed_ftest.Runner.case) ->
          let config = { Interp.files = c.files; max_steps = suite.max_steps } in
          let args () = List.map copy_arg c.args in
          let plain = Interp.run ~config prog ~entry:suite.entry ~args:(args ()) in
          add_outcome plain;
          if plain.steps > 2 then begin
            let budget = Budget.create ~fuel:(plain.steps / 2) () in
            add_outcome
              (Interp.run ~budget ~config prog ~entry:suite.entry ~args:(args ()));
            List.iter (fun (s, n) -> add (Printf.sprintf "%s=%d" s n))
              (Budget.spent_by budget);
            List.iter (fun s -> add (Budget.string_of_stage s)) (Budget.hits budget)
          end;
          if plain.steps <= 5000 then begin
            let traced, snaps =
              Interp.run_traced ~config prog ~entry:suite.entry ~args:(args ())
            in
            add_outcome traced;
            List.iter
              (fun snap ->
                add (String.concat " " (List.map (fun (x, v) -> x ^ "=" ^ v) snap)))
              snaps
          end)
        suite.cases)
    programs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Re-pin only on purpose: a moved digest means the interpreter's
   observable behaviour changed somewhere in the corpus. *)
let corpus_digests =
  [
    ("assignment1", "0f9dce44e483860dfe7b9eecbf58057f");
    ("esc-LAB-3-P1-V1", "2be047f519bfdf09e6a3ca525f9736c1");
    ("esc-LAB-3-P2-V1", "da2c180e5dac650429cae1691cea4af8");
    ("esc-LAB-3-P2-V2", "ef362b4a0aa06e3fbb5e518f1fa41a5e");
    ("esc-LAB-3-P3-V1", "d604aab15c320da2abf205b2be78a735");
    ("esc-LAB-3-P4-V1", "25dadcf98a8233cf80b429c3ee9a1d28");
    ("esc-LAB-3-P3-V2", "0f4146246b4b3515a60c52d9a2106b8b");
    ("esc-LAB-3-P4-V2", "b36f0f924c5df3d51fb2c61542f7e864");
    ("mitx-derivatives", "58fa724a4e32e21d692c35d6baed23c3");
    ("mitx-polynomials", "4779f4ef79a3e290479135e66e77ae10");
    ("rit-all-g-medals", "be20dff849a40a237bc18a2e37a61b5e");
    ("rit-medals-by-ath", "45e0617ef8e35c990a7824d3a1ecd15e");
  ]

let test_corpus_pinned () =
  List.iter
    (fun (b : Jfeed_kb.Bundles.t) ->
      let id = b.gen.Jfeed_gen.Spec.id in
      Alcotest.(check string) id
        (Option.value (List.assoc_opt id corpus_digests) ~default:"?")
        (corpus_digest b))
    Jfeed_kb.Bundles.all

let test_array_heap_bound () =
  let oom = "OutOfMemoryError: Java heap space" in
  Alcotest.(check string)
    "one dimension" oom
    (err ~args:[] "void f() { int[] a = new int[100000000]; }");
  Alcotest.(check string)
    "the product of the dimensions" oom
    (err ~args:[] "void f() { int[][] a = new int[2049][2048]; }");
  Alcotest.(check string)
    "the cells before a zero dimension" oom
    (err ~args:[] "void f() { int[][] a = new int[100000000][0]; }");
  Alcotest.(check string)
    "2^22 cells still allocate" "2048 2048\n"
    (out ~args:[]
       "void f() { int[][] a = new int[2048][2048]; \
        System.out.println(a.length + \" \" + a[2047].length); }");
  Alcotest.(check string)
    "nothing past a zero dimension" "0\n"
    (out ~args:[]
       "void f() { int[][] a = new int[0][100000000]; System.out.println(a.length); }");
  Alcotest.(check string)
    "a negative size still fails as before" "NegativeArraySizeException: -1"
    (err ~args:[] "void f() { int[][] a = new int[100000000][-1]; }")

(* ------------------------------------------------------------------ *)
(* Fuel accounting                                                     *)

(* A loop that calls a helper every iteration: never accelerated. *)
let call_loop =
  {|int g(int x) { return x + 1; }
    void f() { int s = 0; for (int i = 0; i < 300; i = g(i)) { s += g(i) % 7; } System.out.println(s); }|}

(* The outcome's fields, then the budget's total, per-stage spend and
   hits. *)
let observe_budget budget ~config prog ~entry ~args =
  let args = List.map copy_arg args in
  let o = Interp.run ?budget ~config prog ~entry ~args in
  ( [ o.Interp.stdout; Option.value o.error ~default:"-"; string_of_int o.steps;
      (match o.result with Some v -> Value.to_display v | None -> "-") ],
    match budget with
    | None -> []
    | Some b ->
        string_of_int (Budget.spent b)
        :: List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) (Budget.spent_by b)
        @ List.map Budget.string_of_stage (Budget.hits b) )

(* A run that ends by itself after N steps, cut at every fuel f < N, fails
   at step f + 1 with exactly f + 1 units spent, all of them by the
   interpreter; with f >= N it runs as the unlimited run does.  The same
   holds on a budget that the matcher already drew 1,000 units from. *)
let fuel_closed_form label ?(config = { Interp.files = []; max_steps = 100_000 })
    ~entry ~args src =
  let prog = Jfeed_java.Parser.parse_program src in
  let plain, _ = observe_budget None ~config prog ~entry ~args in
  Alcotest.(check string) (label ^ ": ends by itself") "-" (List.nth plain 1);
  let n = int_of_string (List.nth plain 2) in
  List.iter
    (fun pre ->
      let budget fuel =
        let b = Budget.create ~fuel:(pre + fuel) () in
        if pre > 0 then ignore (Budget.spend b Budget.Matcher pre);
        Some b
      in
      let spend interp hits =
        [ string_of_int (pre + interp);
          Printf.sprintf "matcher=%d" pre; "pairing=0";
          Printf.sprintf "interp=%d" interp ]
        @ hits
      in
      for f = 0 to n - 1 do
        let out, spent = observe_budget (budget f) ~config prog ~entry ~args in
        (* Stdout is whatever the cut run printed: compare the rest. *)
        let got = (List.tl out, spent) in
        let want =
          ( [ "fuel budget exhausted"; string_of_int (f + 1); "-" ],
            spend (f + 1) [ "interp" ] )
        in
        if got <> want then
          Alcotest.failf "%s (pre-spent %d): fuel %d of %d steps: %s" label pre f n
            (String.concat " | " (fst got @ snd got))
      done;
      List.iter
        (fun f ->
          Alcotest.(check (pair (list string) (list string)))
            (Printf.sprintf "%s (pre-spent %d): fuel %d" label pre f)
            (plain, spend n [])
            (observe_budget (budget f) ~config prog ~entry ~args))
        [ n; n + 1; 2 * n ])
    [ 0; 1000 ]

let test_fuel_closed_form () =
  fuel_closed_form "call-heavy loop" ~entry:"f" ~args:[] call_loop;
  List.iter
    (fun (id, case) ->
      let b = Option.get (Jfeed_kb.Bundles.find id) in
      let c = List.nth b.suite.cases case in
      fuel_closed_form (id ^ " reference " ^ c.label)
        ~config:{ Interp.files = c.files; max_steps = b.suite.max_steps }
        ~entry:b.suite.entry ~args:c.args
        (Jfeed_gen.Spec.reference b.gen))
    [
      ("esc-LAB-3-P2-V1", 6);
      ("esc-LAB-3-P4-V2", 2);
      ("assignment1", 4);
      ("rit-all-g-medals", 0);
    ]

(* Under a deadline that has already passed, the budget polls the clock
   when its total reaches a multiple of 1,024: the run fails on the step
   that brings it there. *)
let test_deadline_poll_points () =
  let prog = Jfeed_java.Parser.parse_program call_loop in
  let config = { Interp.files = []; max_steps = 100_000 } in
  let case pre =
    let b = Budget.create ~deadline_s:(-1.0) () in
    if pre > 0 then ignore (Budget.spend b Budget.Matcher pre);
    let o = Interp.run ~budget:b ~config prog ~entry:"f" ~args:[] in
    ( (Option.value o.Interp.error ~default:"-", o.steps),
      (List.assoc "interp" (Budget.spent_by b), List.map Budget.string_of_stage (Budget.hits b)) )
  in
  let check label pre steps =
    Alcotest.(check (pair (pair string int) (pair int (list string))))
      label
      (("fuel budget exhausted", steps), (steps, [ "interp" ]))
      (case pre)
  in
  check "fresh budget" 0 1024;
  check "1,000 units pre-spent on the matcher" 1000 24

(* ------------------------------------------------------------------ *)
(* Allocation per step                                                 *)

(* esc-LAB-3-P1-V1 with the option f-init=0: the helper returns 0, so the
   search loop calls it forever and no loop is accelerated. *)
let p1_f_init_0 =
  {|int factorial(int x) {
      int f = 0;
      for (int i = 1; i <= x; i++) {
          f *= i;
      }
      return f;
  }

  void lab3p1(int k) {
      int n = 0;
      while (factorial(n + 1) <= k) {
          n++;
      }
      System.out.println(n);
  }|}

let fib =
  {|int fib(int n) { if (n <= 2) return 1; return fib(n - 1) + fib(n - 2); }
    void lab3p1(int k) { System.out.println(fib(k)); }|}

(* Minor words allocated per step over a run cut at 100,000 steps under
   an unlimited budget.  With every int and boolean boxed and a budget
   spend per step, P1 allocated 6.96 words per step and fib 8.34;
   unboxed, they allocate 0.04 and 0.68.  The bounds are about twice
   that. *)
let test_allocation_per_step () =
  let words_per_step src k =
    let prog = Jfeed_java.Parser.parse_program src in
    let config = { Interp.files = []; max_steps = 100_000 } in
    let budget = Budget.unlimited () in
    let before = Gc.minor_words () in
    let o = Interp.run ~budget ~config prog ~entry:"lab3p1" ~args:[ Value.Vint k ] in
    let words = Gc.minor_words () -. before in
    Alcotest.(check (pair (option string) int))
      "cut by the step limit" (Some "step limit exceeded", 100_001)
      (o.Interp.error, o.steps);
    words /. float_of_int o.steps
  in
  let bound label words limit =
    if words > limit then
      Alcotest.failf "%s: %.2f minor words per step, bound %.2f" label words limit
  in
  bound "P1 f-init=0" (words_per_step p1_f_init_0 1) 0.1;
  bound "recursive fib" (words_per_step fib 40) 1.5

(* The kind analysis drops a name when a write to it loses the kind, and
   every name whose initializer reads it goes with it.  On a chain of
   declarations that it unravels one link at a time, it must not
   re-check the whole method per link: compiling allocates a bounded
   number of words per link (about 171, against 78 for the boxed
   compiler).  Re-checking every name per dropped link would allocate
   thousands. *)
let test_kind_analysis_linear () =
  let links = 400 in
  let b = Buffer.create (links * 24) in
  Buffer.add_string b "void f() { int a0 = 0; a0 = 1.5;";
  for i = 1 to links do
    Printf.bprintf b " int a%d = a%d;" i (i - 1)
  done;
  Printf.bprintf b " System.out.println(a%d); }" links;
  let prog = Jfeed_java.Parser.parse_program (Buffer.contents b) in
  let before = Gc.minor_words () in
  let o = Interp.run prog ~entry:"no-such-method" ~args:[] in
  let words = (Gc.minor_words () -. before) /. float_of_int links in
  Alcotest.(check (option string))
    "compiled, then found no entry" (Some "no method named no-such-method")
    o.Interp.error;
  if words > 350.0 then
    Alcotest.failf "%.0f minor words per link, bound 350" words;
  Alcotest.(check string) "the double reaches the end of the chain" "1.5\n"
    (out ~args:[] (Buffer.contents b))

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "methods and recursion" `Quick test_methods;
    Alcotest.test_case "scanner" `Quick test_scanner;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "math builtins" `Quick test_math;
    Alcotest.test_case "scoping" `Quick test_scoping;
    Alcotest.test_case "incr/decr value" `Quick test_incdec_semantics;
    Alcotest.test_case "variable tracing" `Quick test_trace;
    Alcotest.test_case "switch-case declarations" `Quick test_switch_case_scope;
    Alcotest.test_case "shadowing" `Quick test_shadowing;
    Alcotest.test_case "shadowing snapshots" `Quick test_shadowing_snapshots;
    Alcotest.test_case "break/continue leaving a method" `Quick test_stray_jumps;
    Alcotest.test_case "accelerated loops: hand-written" `Quick test_acceleration_cases;
    Alcotest.test_case "accelerated loops: wrap boundary" `Quick test_acceleration_wrap;
    Alcotest.test_case "accelerated loops: fuel" `Quick test_acceleration_fuel;
    Alcotest.test_case "accelerated loops: sampled corpus" `Quick test_acceleration_corpus;
    Alcotest.test_case "accelerated loops: fast path" `Quick test_acceleration_speed;
    Alcotest.test_case "corpus behaviour pinned" `Quick test_corpus_pinned;
    QCheck_alcotest.to_alcotest prop_arith_oracle;
    Alcotest.test_case "array allocation heap bound" `Quick test_array_heap_bound;
    Alcotest.test_case "fuel accounting closed form" `Quick test_fuel_closed_form;
    Alcotest.test_case "deadline poll points" `Quick test_deadline_poll_points;
    Alcotest.test_case "allocation per step" `Quick test_allocation_per_step;
    Alcotest.test_case "kind analysis is linear" `Quick test_kind_analysis_linear;
  ]
