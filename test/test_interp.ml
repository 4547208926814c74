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
    Alcotest.test_case "corpus behaviour pinned" `Quick test_corpus_pinned;
    QCheck_alcotest.to_alcotest prop_arith_oracle;
  ]
