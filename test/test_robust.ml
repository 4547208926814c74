(** Resilience layer: budgets, the degradation ladder, the outcome
    taxonomy, and the fault-injection/fuzz harness.

    The harness mutates generated submissions (token deletion and
    duplication, garbage bytes, deep nesting, giant expressions,
    pathological variable reuse) and asserts the one property the
    pipeline guarantees: {e every} input yields an {!Outcome.t} —
    no exception ever escapes {!Pipeline.assess}. *)

open Jfeed_core
open Jfeed_kb
open Jfeed_robust
module Budget = Jfeed_budget.Budget
module Runner = Jfeed_ftest.Runner

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Budget *)

let test_budget_fuel () =
  let b = Budget.create ~fuel:10 () in
  check "fresh budget not exhausted" false (Budget.exhausted b);
  check "first 10 units are granted" true (Budget.spend b Budget.Matcher 10);
  check "11th unit is refused" false (Budget.spend b Budget.Interp 1);
  check "exhausted afterwards" true (Budget.exhausted b);
  check "refusals latch" false (Budget.spend b Budget.Pairing 1);
  Alcotest.(check (list string))
    "hits in first-hit order"
    [ "interp"; "pairing" ]
    (List.map Budget.string_of_stage (Budget.hits b))

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  check "unlimited grants a big spend" true (Budget.spend b Budget.Interp 1_000_000);
  check "still not exhausted" false (Budget.exhausted b);
  Alcotest.(check int) "fuel spent is counted" 1_000_000 (Budget.spent b);
  Alcotest.(check (list string)) "no hits" [] (List.map Budget.string_of_stage (Budget.hits b))

let test_budget_check () =
  let b = Budget.create ~fuel:5 () in
  check "check consumes nothing" true (Budget.check b Budget.Matcher);
  Alcotest.(check int) "nothing spent" 0 (Budget.spent b);
  check "overdraft refused" false (Budget.spend b Budget.Matcher 6);
  check "check sees the latch" false (Budget.check b Budget.Interp);
  Alcotest.(check (option int)) "nothing remains" (Some 0) (Budget.remaining b)

(* A passed deadline is seen when the total spent reaches or crosses a
   multiple of 1024 units. *)
let test_budget_deadline_polls () =
  let b = Budget.create ~deadline_s:(-1.0) () in
  check "a bulk spend below 1024 does not poll" true
    (Budget.spend b Budget.Interp 1000);
  check "a single spend off a multiple does not poll" true
    (Budget.spend b Budget.Interp 1);
  check "a bulk spend across 1024 polls" false (Budget.spend b Budget.Interp 100);
  let b = Budget.create ~deadline_s:(-1.0) () in
  check "single spends poll on reaching 1024" false
    (List.for_all (fun _ -> Budget.spend b Budget.Interp 1) (List.init 1024 Fun.id));
  Alcotest.(check int) "after 1024 units" 1024 (Budget.spent b)

(* ------------------------------------------------------------------ *)
(* Matcher: exhaustion is tagged, not silent *)

let assignment1_epdg_and_pattern () =
  let b = Bundles.assignment1 in
  let src = Jfeed_gen.Spec.reference b.Bundles.gen in
  let graphs = Jfeed_pdg.Epdg.of_source src in
  let g = snd (List.hd graphs) in
  let p, _ = List.hd (Bundles.patterns b) in
  (p, g)

let test_matcher_exhausted_flag () =
  let p, g = assignment1_epdg_and_pattern () in
  let full = Matcher.embeddings_budgeted p g in
  check "unbudgeted search completes" false full.Matcher.exhausted;
  let starved = Budget.create ~fuel:0 () in
  let cut = Matcher.embeddings_budgeted ~budget:starved p g in
  check "starved search is tagged exhausted" true cut.Matcher.exhausted;
  check "partial result is a prefix, not an overrun" true
    (List.length cut.Matcher.found <= List.length full.Matcher.found);
  check "the budget recorded the matcher hit" true
    (List.mem Budget.Matcher (Budget.hits starved))

let test_matcher_budget_generous () =
  (* A budget large enough to finish changes nothing. *)
  let p, g = assignment1_epdg_and_pattern () in
  let full = Matcher.embeddings_budgeted p g in
  let b = Budget.create ~fuel:10_000_000 () in
  let same = Matcher.embeddings_budgeted ~budget:b p g in
  check "same embeddings" true (same.Matcher.found = full.Matcher.found);
  check "not exhausted" false same.Matcher.exhausted

(* ------------------------------------------------------------------ *)
(* Parser: nesting guard *)

let test_parser_deep_exprs () =
  let deep =
    "void f() { int x = " ^ String.make 10_000 '(' ^ "1"
    ^ String.make 10_000 ')' ^ "; }"
  in
  match Jfeed_java.Parser.parse_program deep with
  | _ -> Alcotest.fail "10k-deep parentheses parsed"
  | exception Jfeed_java.Parser.Parse_error (msg, _, _) ->
      check "diagnostic names the guard" true
        (msg = "nesting too deep")

let test_parser_deep_blocks () =
  let deep = "void f() " ^ String.make 10_000 '{' ^ String.make 10_000 '}' in
  match Jfeed_java.Parser.parse_program deep with
  | _ -> Alcotest.fail "10k-deep blocks parsed"
  | exception Jfeed_java.Parser.Parse_error (msg, _, _) ->
      check "diagnostic names the guard" true (msg = "nesting too deep")

let test_parser_deep_unary () =
  let deep = "void f() { int x = " ^ String.make 10_000 '!' ^ "1; }" in
  match Jfeed_java.Parser.parse_program deep with
  | _ -> Alcotest.fail "10k-deep unary chain parsed"
  | exception Jfeed_java.Parser.Parse_error (msg, _, _) ->
      check "diagnostic names the guard" true (msg = "nesting too deep")

let test_parser_reasonable_depth_ok () =
  (* The guard must not reject real code: 50 levels is far beyond any
     student submission and far below the cutoff. *)
  let src =
    "void f() { int x = " ^ String.make 50 '(' ^ "1" ^ String.make 50 ')'
    ^ "; }"
  in
  match Jfeed_java.Parser.parse_program src with
  | _ -> ()
  | exception _ -> Alcotest.fail "50-deep parentheses rejected"

(* ------------------------------------------------------------------ *)
(* Runner: malformed suite is a verdict, not a crash *)

let test_runner_count_mismatch () =
  let prog = Jfeed_java.Parser.parse_program "void f() {}" in
  let suite =
    {
      Runner.entry = "f";
      cases = [ { Runner.label = "c1"; args = []; files = [] } ];
      max_steps = 1_000;
    }
  in
  match Runner.run suite ~expected:[] prog with
  | Runner.Fail { case = "<suite>"; reason } ->
      check "reason names the mismatch" true
        (String.length reason > 0
        && String.sub reason 0 30 = "expected-output count mismatch")
  | Runner.Fail _ -> Alcotest.fail "mismatch blamed a real case"
  | Runner.Pass -> Alcotest.fail "mismatch passed"

(* ------------------------------------------------------------------ *)
(* Fault injection: mutations over generated submissions *)

(* Deterministic pseudo-random stream (no global RNG state: the fuzz
   corpus must be reproducible). *)
let lcg seed =
  let s = ref (seed land 0x3FFFFFFF) in
  fun n ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    if n <= 0 then 0 else !s mod n

let splice src at insert = String.sub src 0 at ^ insert ^ String.sub src at (String.length src - at)

let delete_span rand src =
  let n = String.length src in
  if n < 2 then src
  else
    let at = rand (n - 1) in
    let len = 1 + rand (min 40 (n - at - 1)) in
    String.sub src 0 at ^ String.sub src (at + len) (n - at - len)

let duplicate_span rand src =
  let n = String.length src in
  if n < 2 then src
  else
    let at = rand (n - 1) in
    let len = 1 + rand (min 60 (n - at - 1)) in
    splice src at (String.sub src at len)

let insert_garbage rand src =
  let garbage = [| "\xff\xfe"; "{{(("; ";;;;"; "\x00"; "%@#"; "\"" |] in
  splice src (rand (String.length src + 1)) garbage.(rand (Array.length garbage))

(* Inserted after the first '{' so it lands inside a method body. *)
let inject_stmt src stmt =
  match String.index_opt src '{' with
  | None -> stmt ^ src
  | Some i -> splice src (i + 1) stmt

let deep_nesting rand src =
  let depth = 2_000 + rand 8_000 in
  inject_stmt src
    (" int zz = " ^ String.make depth '(' ^ "1" ^ String.make depth ')' ^ "; ")

let giant_expression rand src =
  let terms = 1_000 + rand 2_000 in
  let buf = Buffer.create (4 * terms) in
  Buffer.add_string buf " int gg = 1";
  for _ = 1 to terms do
    Buffer.add_string buf "+1"
  done;
  Buffer.add_string buf "; ";
  inject_stmt src (Buffer.contents buf)

(* Many distinct variables in one expression stress the injective
   variable-mapping enumeration of Algorithm 1. *)
let variable_reuse _rand src =
  inject_stmt src
    " int vv = va+vb+vc+vd+ve+vf+vg+vh+vi+vj+vk+vl+vm+vn; "

let mutations =
  [| delete_span; duplicate_span; insert_garbage; deep_nesting;
     giant_expression; variable_reuse |]

let mutate rand src =
  let rounds = 1 + rand 2 in
  let s = ref src in
  for _ = 1 to rounds do
    s := mutations.(rand (Array.length mutations)) rand !s
  done;
  !s

(* The three bundles of the fuzz corpus: small spaces, distinct shapes
   (digit cubes, polynomial derivatives, polynomial evaluation). *)
let fuzz_bundles =
  [ Bundles.esc_p2v2; Bundles.mitx_derivatives; Bundles.mitx_polynomials ]

let cases_per_bundle = 170 (* 3 × 170 = 510 mutated submissions *)

let test_fuzz_pipeline_total () =
  let outcomes = Hashtbl.create 4 in
  List.iteri
    (fun bi b ->
      let spec = b.Bundles.gen in
      (* Indices stride the space with wraparound — [sample_indices]
         dedups, and the smallest corpus bundle holds fewer than 170
         distinct submissions. *)
      let size = Jfeed_gen.Spec.size spec in
      let indices =
        List.init cases_per_bundle (fun i -> ((i * 48271) + bi) mod size)
      in
      List.iteri
        (fun i idx ->
          let rand = lcg ((bi * 7919) + (i * 104729) + idx) in
          let src = mutate rand (Jfeed_gen.Spec.source_of_index spec idx) in
          let budget = Budget.create ~fuel:50_000 () in
          match Pipeline.assess ~budget b src with
          | o ->
              let c = Outcome.classify o in
              Hashtbl.replace outcomes c
                (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes c))
          | exception e ->
              Alcotest.failf "pipeline raised %s on %s mutant #%d:\n%s"
                (Printexc.to_string e)
                b.Bundles.grading.Grader.a_id i
                (String.sub src 0 (min 200 (String.length src))))
        indices)
    fuzz_bundles;
  let total = Hashtbl.fold (fun _ n acc -> n + acc) outcomes 0 in
  Alcotest.(check int)
    "all mutants produced an outcome"
    (cases_per_bundle * List.length fuzz_bundles)
    total;
  (* The corpus must actually exercise the taxonomy: mutants land in
     both the accepted and the rejected classes. *)
  check "some mutants were rejected" true (Hashtbl.mem outcomes "rejected");
  check "some mutants were graded or degraded" true
    (Hashtbl.mem outcomes "graded" || Hashtbl.mem outcomes "degraded")

let test_edge_inputs_total () =
  let b = Bundles.assignment1 in
  let inputs =
    [
      ("empty", "");
      ("whitespace", "   \n\t\n");
      ("non-utf8", "\xff\xfe\x00\xc3\x28");
      ("half a method", "void assignment1(int[] a) { int odd = 0;");
      ( "10k nesting",
        "void assignment1(int[] a) { int x = " ^ String.make 10_000 '('
        ^ "1" ^ String.make 10_000 ')' ^ "; }" );
      ("class soup", "class class class {{{ void void }}}");
    ]
  in
  List.iter
    (fun (label, src) ->
      match Pipeline.assess b src with
      | o ->
          check
            (label ^ " classified")
            true
            (List.mem (Outcome.classify o) [ "graded"; "degraded"; "rejected" ])
      | exception e ->
          Alcotest.failf "pipeline raised %s on %s" (Printexc.to_string e)
            label)
    inputs;
  (* And the specific shapes promised by the taxonomy: *)
  (match Pipeline.assess b "\xff\xfe" with
  | Outcome.Rejected d -> check "garbage rejected at lex" true (d.Outcome.stage = "lex")
  | _ -> Alcotest.fail "garbage bytes not rejected");
  match
    Pipeline.assess b
      ("void f() { int x = " ^ String.make 10_000 '(' ^ "1"
     ^ String.make 10_000 ')' ^ "; }")
  with
  | Outcome.Rejected d ->
      check "deep nesting rejected at parse" true (d.Outcome.stage = "parse")
  | _ -> Alcotest.fail "deep nesting not rejected"

(* ------------------------------------------------------------------ *)
(* Degradation regression: a starved budget degrades with named stages *)

let test_starved_budget_degrades () =
  let b = Bundles.assignment1 in
  let src = Jfeed_gen.Spec.reference b.Bundles.gen in
  let budget = Budget.create ~fuel:100 () in
  match Pipeline.assess ~budget b src with
  | Outcome.Degraded (report, reasons) ->
      let stages = List.map Outcome.stage_of_reason reasons in
      check "matcher exhaustion is named" true (List.mem "matcher" stages);
      check "interp exhaustion is named" true (List.mem "interp" stages);
      check "a report was still produced" true
        (report.Outcome.grading.Grader.comments <> []);
      check "fuel accounting ran" true (Budget.spent budget >= 100)
  | o ->
      Alcotest.failf "fuel=100 did not degrade: %s" (Outcome.classify o)

let test_starved_pairing_degrades () =
  (* fuel=0: the very first pairing extension is refused, the
     combination search is cut before any matching runs, and the
     all-missing fallback report stands. *)
  let b = Bundles.assignment1 in
  let src = Jfeed_gen.Spec.reference b.Bundles.gen in
  let budget = Budget.create ~fuel:0 () in
  match Pipeline.assess ~budget ~with_tests:false b src with
  | Outcome.Degraded (report, reasons) ->
      let stages = List.map Outcome.stage_of_reason reasons in
      check "pairing exhaustion is named" true (List.mem "pairing" stages);
      check "a report still exists" true
        (report.Outcome.grading.Grader.comments <> [])
  | o -> Alcotest.failf "fuel=0 did not degrade: %s" (Outcome.classify o)

let test_unlimited_budget_grades () =
  (* The guard charges nothing when nothing is starved: the reference
     solution grades cleanly and passes its tests. *)
  let b = Bundles.assignment1 in
  let src = Jfeed_gen.Spec.reference b.Bundles.gen in
  match Pipeline.assess b src with
  | Outcome.Graded report ->
      check "tests passed" true (report.Outcome.tests = Outcome.Tests_passed)
  | o -> Alcotest.failf "reference did not grade: %s" (Outcome.classify o)

let test_guarded_matches_plain_grade () =
  (* On well-formed unbudgeted input the resilient pipeline is the
     paper's system: same score, same pairing. *)
  let b = Bundles.assignment1 in
  let src = Jfeed_gen.Spec.reference b.Bundles.gen in
  let plain =
    Grader.grade b.Bundles.grading (Jfeed_java.Parser.parse_program src)
  in
  match Pipeline.assess ~with_tests:false b src with
  | Outcome.Graded report ->
      check "same score" true
        (report.Outcome.grading.Grader.score = plain.Grader.score);
      check "same pairing" true
        (report.Outcome.grading.Grader.pairing = plain.Grader.pairing)
  | o -> Alcotest.failf "guarded path diverged: %s" (Outcome.classify o)

(* ------------------------------------------------------------------ *)
(* Batch driver *)

let test_batch_summary () =
  let b = Bundles.assignment1 in
  let ref_src = Jfeed_gen.Spec.reference b.Bundles.gen in
  let sources =
    [
      ("good.java", Ok ref_src);
      ("broken.java", Ok "void assignment1(");
      ("unreadable.java", Error "permission denied");
    ]
  in
  let s = Pipeline.run_batch b sources in
  Alcotest.(check int) "total" 3 s.Pipeline.total;
  Alcotest.(check int) "graded" 1 s.Pipeline.graded;
  Alcotest.(check int) "rejected" 2 s.Pipeline.rejected;
  Alcotest.(check int) "exit code 1 on any rejection" 1 (Pipeline.exit_code s);
  let all_good = Pipeline.run_batch b [ ("good.java", Ok ref_src) ] in
  Alcotest.(check int) "exit code 0 when all graded" 0
    (Pipeline.exit_code all_good);
  (* Stable JSON field order. *)
  let json = Pipeline.summary_to_json s in
  let pos sub =
    let n = String.length sub and m = String.length json in
    let rec go i =
      if i + n > m then Alcotest.failf "missing %s in %s" sub json
      else if String.sub json i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  check "field order" true
    (pos {|"assignment"|} < pos {|"total"|}
    && pos {|"total"|} < pos {|"graded"|}
    && pos {|"graded"|} < pos {|"degraded"|}
    && pos {|"degraded"|} < pos {|"rejected"|}
    && pos {|"rejected"|} < pos {|"submissions"|})

let test_batch_isolation () =
  (* One pathological submission must not poison its neighbours. *)
  let b = Bundles.assignment1 in
  let ref_src = Jfeed_gen.Spec.reference b.Bundles.gen in
  let bomb =
    "void assignment1(int[] a) { int x = " ^ String.make 10_000 '(' ^ "1"
    ^ String.make 10_000 ')' ^ "; }"
  in
  let s =
    Pipeline.run_batch ~fuel:1_000_000 b
      [ ("a.java", Ok ref_src); ("bomb.java", Ok bomb); ("c.java", Ok ref_src) ]
  in
  let outcome_of f =
    Outcome.classify
      (List.find (fun it -> it.Pipeline.file = f) s.Pipeline.items)
        .Pipeline.outcome
  in
  Alcotest.(check string) "first neighbour graded" "graded" (outcome_of "a.java");
  Alcotest.(check string) "bomb rejected" "rejected" (outcome_of "bomb.java");
  Alcotest.(check string) "second neighbour graded" "graded" (outcome_of "c.java")

let suite =
  [
    Alcotest.test_case "budget: fuel accounting" `Quick test_budget_fuel;
    Alcotest.test_case "budget: unlimited" `Quick test_budget_unlimited;
    Alcotest.test_case "budget: check spends nothing" `Quick test_budget_check;
    Alcotest.test_case "matcher: exhaustion is tagged" `Quick
      test_matcher_exhausted_flag;
    Alcotest.test_case "matcher: generous budget is a no-op" `Quick
      test_matcher_budget_generous;
    Alcotest.test_case "parser: deep parens rejected" `Quick
      test_parser_deep_exprs;
    Alcotest.test_case "parser: deep blocks rejected" `Quick
      test_parser_deep_blocks;
    Alcotest.test_case "parser: deep unary chain rejected" `Quick
      test_parser_deep_unary;
    Alcotest.test_case "parser: real depths still parse" `Quick
      test_parser_reasonable_depth_ok;
    Alcotest.test_case "runner: count mismatch is a verdict" `Quick
      test_runner_count_mismatch;
    Alcotest.test_case "fuzz: 510 mutants, pipeline total" `Slow
      test_fuzz_pipeline_total;
    Alcotest.test_case "edge inputs are classified" `Quick
      test_edge_inputs_total;
    Alcotest.test_case "starved budget degrades (matcher/interp)" `Quick
      test_starved_budget_degrades;
    Alcotest.test_case "starved budget degrades (pairing)" `Quick
      test_starved_pairing_degrades;
    Alcotest.test_case "unlimited budget grades the reference" `Quick
      test_unlimited_budget_grades;
    Alcotest.test_case "guarded = plain grade on clean input" `Quick
      test_guarded_matches_plain_grade;
    Alcotest.test_case "batch: summary counts and JSON order" `Quick
      test_batch_summary;
    Alcotest.test_case "batch: per-submission isolation" `Quick
      test_batch_isolation;
    Alcotest.test_case "budget: bulk spends poll the deadline" `Quick
      test_budget_deadline_polls;
  ]
