(** Static analysis layer: the five submission passes, the source-map
    positions they cite, the KB linter over every shipped bundle, and
    the qcheck invariants the ISSUE pins — totality over the mutated
    corpus, and diagnostic stability under semantics-preserving mutants
    and worker-pool width. *)

open Jfeed_core
open Jfeed_kb
open Jfeed_java
module D = Jfeed_analysis.Diagnostic
module Passes = Jfeed_analysis.Passes
module Kb_lint = Jfeed_analysis.Kb_lint
module Mutate = Jfeed_gen.Mutate
module Pool = Jfeed_parallel.Pool
module Outcome = Jfeed_robust.Outcome
module Pipeline = Jfeed_robust.Pipeline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Diagnostics of one pass, for a source string. *)
let of_pass pass src =
  List.filter (fun d -> d.D.pass = pass) (Passes.analyze_source src)

(* ------------------------------------------------------------------ *)
(* Source map                                                          *)

let test_srcmap_positions () =
  let src = "int f(int x) {\n    int y = x;\n    return y;\n}" in
  let prog, map = Parser.parse_program_located src in
  let m = List.hd prog.Ast.methods in
  (match Srcmap.meth_pos map m with
  | Some p ->
      check_int "meth line" 1 p.Srcmap.line;
      check_int "meth col" 1 p.Srcmap.col
  | None -> Alcotest.fail "no method position");
  match m.Ast.m_body with
  | [ s1; s2 ] -> (
      (match Srcmap.stmt_pos map s1 with
      | Some p ->
          check_int "decl stmt line" 2 p.Srcmap.line;
          check_int "decl stmt col" 5 p.Srcmap.col
      | None -> Alcotest.fail "no position for the declaration");
      (match s1 with
      | Ast.Sdecl [ d ] -> (
          match Srcmap.decl_pos map d with
          | Some p ->
              check_int "declarator line" 2 p.Srcmap.line;
              (* recorded at the declared name, not the type *)
              check_int "declarator col" 9 p.Srcmap.col
          | None -> Alcotest.fail "no position for the declarator")
      | _ -> Alcotest.fail "statement shape");
      match Srcmap.stmt_pos map s2 with
      | Some p -> check_int "return stmt line" 3 p.Srcmap.line
      | None -> Alcotest.fail "no position for the return")
  | _ -> Alcotest.fail "body shape"

let test_located_same_ast () =
  (* The side table must not perturb parsing: both entry points agree. *)
  let src =
    "int f(int n) {\n\
    \    int s = 0;\n\
    \    for (int i = 0; i < n; i++) {\n\
    \        s += i;\n\
    \    }\n\
    \    return s;\n\
     }"
  in
  let plain = Parser.parse_program src in
  let located, _ = Parser.parse_program_located src in
  check_bool "same AST" true (plain = located)

(* ------------------------------------------------------------------ *)
(* The five passes, one surgical case each                             *)

let test_use_before_init () =
  let src =
    "int f(int n) {\n\
    \    int u;\n\
    \    if (n > 0) {\n\
    \        u = 1;\n\
    \    }\n\
    \    return u;\n\
     }"
  in
  match of_pass "use-before-init" src with
  | [ d ] ->
      check_bool "severity" true (d.D.severity = D.Error);
      Alcotest.(check string) "method" "f" d.D.meth;
      check_int "line of the unsafe read" 6 d.D.line;
      check_bool "names the variable" true (contains d.D.message "'u'")
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let test_use_before_init_clean () =
  let src =
    "int f(int n) {\n\
    \    int u;\n\
    \    if (n > 0) {\n\
    \        u = 1;\n\
    \    } else {\n\
    \        u = 2;\n\
    \    }\n\
    \    return u;\n\
     }"
  in
  check_int "both branches assign: no finding" 0
    (List.length (of_pass "use-before-init" src))

let test_dead_store () =
  let src =
    "int g(int n) {\n\
    \    int x = 1;\n\
    \    x = n;\n\
    \    int t = n;\n\
    \    return x;\n\
     }"
  in
  let ds = of_pass "dead-store" src in
  check_int "overwrite + never-read" 2 (List.length ds);
  check_bool "overwritten store flagged" true
    (List.exists
       (fun d -> d.D.line = 2 && contains d.D.message "overwritten")
       ds);
  check_bool "never-read local flagged" true
    (List.exists
       (fun d -> contains d.D.message "'t' is never read")
       ds);
  List.iter
    (fun d -> check_bool "warning severity" true (d.D.severity = D.Warning))
    ds

let test_unreachable () =
  let src = "int k(int n) {\n    return n;\n    n = n + 1;\n    return 0;\n}" in
  match of_pass "unreachable" src with
  | [ d ] ->
      check_int "line of the dead statement" 3 d.D.line;
      check_bool "warning severity" true (d.D.severity = D.Warning)
  | ds ->
      (* one finding per dead sequence, not one per dead statement *)
      Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let test_missing_return () =
  let src = "int m(int n) {\n    if (n > 0) {\n        return 1;\n    }\n}" in
  (match of_pass "missing-return" src with
  | [ d ] ->
      check_bool "severity" true (d.D.severity = D.Error);
      Alcotest.(check string) "method" "m" d.D.meth;
      check_int "cited at the method header" 1 d.D.line
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds));
  check_int "void methods exempt" 0
    (List.length (of_pass "missing-return" "void v(int n) { n = n + 1; }"))

let test_suspicious_loop () =
  let src =
    "int s(int n) {\n\
    \    int i = 0;\n\
    \    int acc = 0;\n\
    \    while (i < n) {\n\
    \        acc = acc + 1;\n\
    \    }\n\
    \    return acc;\n\
     }"
  in
  (match of_pass "suspicious-loop" src with
  | [ d ] ->
      check_int "line of the loop" 4 d.D.line;
      check_bool "names the stuck condition reads" true
        (contains d.D.message "'i'" && contains d.D.message "'n'")
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds));
  let with_update =
    "int s(int n) {\n\
    \    int i = 0;\n\
    \    while (i < n) {\n\
    \        i = i + 1;\n\
    \    }\n\
    \    return i;\n\
     }"
  in
  check_int "updating loop is clean" 0
    (List.length (of_pass "suspicious-loop" with_update));
  let with_break =
    "int s(int n) {\n\
    \    int i = 0;\n\
    \    while (i < n) {\n\
    \        break;\n\
    \    }\n\
    \    return i;\n\
     }"
  in
  check_int "break escape suppresses" 0
    (List.length (of_pass "suspicious-loop" with_break))

let test_clean_method () =
  let src =
    "int sum(int n) {\n\
    \    int s = 0;\n\
    \    int i = 0;\n\
    \    while (i < n) {\n\
    \        s = s + i;\n\
    \        i = i + 1;\n\
    \    }\n\
    \    return s;\n\
     }"
  in
  check_int "no findings on a clean method" 0
    (List.length (Passes.analyze_source src))

let test_analyze_source_total_on_garbage () =
  (* Unparseable input is a diagnostic, never an exception. *)
  (match Passes.analyze_source "int f( {" with
  | [ d ] ->
      Alcotest.(check string) "pass" "parse" d.D.pass;
      check_bool "severity" true (d.D.severity = D.Error)
  | ds -> Alcotest.failf "expected 1 parse diagnostic, got %d" (List.length ds));
  match Passes.analyze_source "int f() { char c = '" with
  | [ d ] -> Alcotest.(check string) "lex failure is a parse diag" "parse" d.D.pass
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let test_count_by_pass () =
  let counts = Passes.count_by_pass [] in
  Alcotest.(check (list string))
    "five ids, canonical order, zero-filled" Passes.pass_ids
    (List.map fst counts);
  check_bool "all zero" true (List.for_all (fun (_, n) -> n = 0) counts);
  let ds = Passes.analyze_source "int f( {" in
  let counts = Passes.count_by_pass ds in
  check_int "extra pass appended" (List.length Passes.pass_ids + 1)
    (List.length counts);
  Alcotest.(check (option int)) "parse counted" (Some 1)
    (List.assoc_opt "parse" counts)

(* ------------------------------------------------------------------ *)
(* Diagnostic rendering                                                *)

let test_diag_render_and_json () =
  let d =
    D.make ~pass:"dead-store" ~severity:D.Warning ~meth:"f"
      ~pos:{ Srcmap.line = 3; col = 9 } "variable 'x' is never read"
  in
  Alcotest.(check string) "render" "f:3:9: warning [dead-store] variable 'x' is never read" (D.render d);
  Alcotest.(check string) "json"
    {|{"pass":"dead-store","severity":"warning","method":"f","line":3,"col":9,"message":"variable 'x' is never read"}|}
    (D.to_json d);
  let no_pos = D.make ~pass:"kb-unsat" ~severity:D.Error ~meth:"m" "boom" in
  Alcotest.(check string) "positionless render" "m: error [kb-unsat] boom"
    (D.render no_pos)

(* ------------------------------------------------------------------ *)
(* KB linter                                                           *)

let test_shipped_bundles_lint_clean () =
  check_int "twelve shipped bundles" 12 (List.length Bundles.all);
  List.iter
    (fun b ->
      let ds = Kb_lint.lint_spec b.Bundles.grading in
      Alcotest.(check (list string))
        (b.Bundles.grading.Grader.a_id ^ " lints clean")
        []
        (List.map D.render ds))
    Bundles.all

let test_broken_fixture_covers_all_checks () =
  let ds = Kb_lint.lint_spec Kb_lint.broken_fixture in
  check_bool "fixture is flagged" true (ds <> []);
  List.iter
    (fun pass ->
      check_bool (pass ^ " fires on the fixture") true
        (List.exists (fun d -> d.D.pass = pass) ds))
    Kb_lint.pass_ids;
  (* every finding belongs to a declared linter pass *)
  List.iter
    (fun d ->
      check_bool ("declared pass: " ^ d.D.pass) true
        (List.mem d.D.pass Kb_lint.pass_ids))
    ds

(* ------------------------------------------------------------------ *)
(* Outcome integration                                                 *)

let test_outcome_carries_diags () =
  let b = List.hd Bundles.all in
  let src = "int f(int n) {\n    int u;\n    return u;\n}" in
  match Pipeline.assess ~with_tests:false b src with
  | Outcome.Rejected _ -> Alcotest.fail "parseable input was rejected"
  | o ->
      let rep = Option.get (Outcome.report o) in
      check_bool "report carries diagnostics" true (rep.Outcome.diags <> []);
      let compact = Outcome.to_json o in
      check_bool "diags count in compact json" true (contains compact {|"diags":|});
      check_bool "no diagnostic bodies in compact json" false
        (contains compact {|"diagnostics":|});
      let full = Outcome.to_json ~comments:true o in
      check_bool "diagnostic bodies under comments" true
        (contains full {|"diagnostics":[{"pass":|})

(* ------------------------------------------------------------------ *)
(* qcheck: totality and invariance over the generated corpus           *)

let arbitrary_mutant =
  let gen =
    QCheck.Gen.(
      let* bi = int_bound (List.length Bundles.all - 1) in
      let b = List.nth Bundles.all bi in
      let* idx = int_bound (Jfeed_gen.Spec.size b.Bundles.gen - 1) in
      let* seed = int_bound 1_000_000 in
      return (bi, idx, seed))
  in
  let print (bi, idx, seed) =
    let b = List.nth Bundles.all bi in
    Printf.sprintf "%s #%d seed=%d" b.Bundles.grading.Grader.a_id idx seed
  in
  QCheck.make ~print gen

let source_of (bi, idx) =
  let b = List.nth Bundles.all bi in
  Jfeed_gen.Spec.source_of_index b.Bundles.gen idx

(* The mutant-stable projection: positions move with layout and
   messages rename with variables, but the (pass, method, severity)
   multiset is a property of the program's semantics. *)
let fingerprint ds =
  List.sort compare (List.map (fun d -> (d.D.pass, d.D.meth, d.D.severity)) ds)

(* Whitespace keeps the token stream, so messages survive too. *)
let fingerprint_msgs ds =
  List.sort compare
    (List.map (fun d -> (d.D.pass, d.D.meth, d.D.severity, d.D.message)) ds)

let prop_total_on_mutants =
  QCheck.Test.make ~count:120
    ~name:"analysis is total over the mutated corpus" arbitrary_mutant
    (fun (bi, idx, seed) ->
      let src = source_of (bi, idx) in
      List.for_all
        (fun s ->
          match Passes.analyze_source s with _ -> true)
        [
          src;
          Mutate.whitespace ~seed src;
          Mutate.alpha_rename ~seed src;
          Mutate.rename_and_reflow ~seed src;
        ])

let prop_alpha_rename_invariant =
  QCheck.Test.make ~count:100
    ~name:"diagnostics invariant under alpha renaming" arbitrary_mutant
    (fun (bi, idx, seed) ->
      let src = source_of (bi, idx) in
      fingerprint (Passes.analyze_source src)
      = fingerprint (Passes.analyze_source (Mutate.alpha_rename ~seed src)))

let prop_whitespace_invariant =
  QCheck.Test.make ~count:100
    ~name:"diagnostics invariant under whitespace reflow" arbitrary_mutant
    (fun (bi, idx, seed) ->
      let src = source_of (bi, idx) in
      fingerprint_msgs (Passes.analyze_source src)
      = fingerprint_msgs (Passes.analyze_source (Mutate.whitespace ~seed src)))

let test_jobs_invariant () =
  (* The CLI's --jobs fan-out must not reorder or alter diagnostics. *)
  let srcs =
    List.concat_map
      (fun b ->
        List.map
          (fun i -> Jfeed_gen.Spec.source_of_index b.Bundles.gen i)
          [ 0; 1; 2; 3 ])
      [ List.nth Bundles.all 0; List.nth Bundles.all 7 ]
  in
  let arr = Array.of_list srcs in
  let f src = List.map D.render (Passes.analyze_source src) in
  let one = Pool.map ~jobs:1 ~f arr in
  let four = Pool.map ~jobs:4 ~f arr in
  check_bool "jobs 1 = jobs 4" true (one = four)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "srcmap positions" `Quick test_srcmap_positions;
    Alcotest.test_case "located parse = plain parse" `Quick
      test_located_same_ast;
    Alcotest.test_case "use-before-init" `Quick test_use_before_init;
    Alcotest.test_case "use-before-init clean join" `Quick
      test_use_before_init_clean;
    Alcotest.test_case "dead-store" `Quick test_dead_store;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "missing-return" `Quick test_missing_return;
    Alcotest.test_case "suspicious-loop" `Quick test_suspicious_loop;
    Alcotest.test_case "clean method is clean" `Quick test_clean_method;
    Alcotest.test_case "totality on garbage" `Quick
      test_analyze_source_total_on_garbage;
    Alcotest.test_case "count_by_pass shape" `Quick test_count_by_pass;
    Alcotest.test_case "diagnostic render + json" `Quick
      test_diag_render_and_json;
    Alcotest.test_case "shipped bundles lint clean" `Quick
      test_shipped_bundles_lint_clean;
    Alcotest.test_case "broken fixture covers all checks" `Quick
      test_broken_fixture_covers_all_checks;
    Alcotest.test_case "outcome carries diagnostics" `Quick
      test_outcome_carries_diags;
    Alcotest.test_case "diagnostics invariant under --jobs" `Quick
      test_jobs_invariant;
    QCheck_alcotest.to_alcotest prop_total_on_mutants;
    QCheck_alcotest.to_alcotest prop_alpha_rename_invariant;
    QCheck_alcotest.to_alcotest prop_whitespace_invariant;
  ]
