(** The repair subsystem: the shared edit catalog, fault injection, the
    early-exit test runner, and the minimal-fix search — rate over the
    mutant corpus, jobs-invariance, budget totality. *)

open Jfeed_java
open Jfeed_kb
module Mutate = Jfeed_gen.Mutate
module Runner = Jfeed_ftest.Runner
module Repair = Jfeed_repair.Repair

let check = Alcotest.(check bool)

(* The cheap-to-interpret bundles the heavier properties sample from;
   rate and invariance hold on all twelve (the bench gate covers them),
   these keep the unit suite fast. *)
let corpus_bundles =
  [
    Bundles.assignment1; Bundles.esc_p2v2; Bundles.mitx_derivatives;
    Bundles.mitx_polynomials;
  ]

let reference_src (b : Bundles.t) = Jfeed_gen.Spec.reference b.Bundles.gen

(* ------------------------------------------------------------------ *)
(* Edit catalog *)

let test_edit_roundtrip () =
  List.iter
    (fun (b : Bundles.t) ->
      let src = reference_src b in
      let prog, srcmap = Parser.parse_program_located src in
      let sites = Edit.enumerate ~srcmap prog in
      check
        (Printf.sprintf "%s has edit sites" b.grading.Jfeed_core.Grader.a_id)
        true (sites <> []);
      List.iter
        (fun (s : Edit.site) ->
          let edited = Edit.apply prog s in
          check "apply changes the program" true (edited <> prog);
          let printed = Pretty.program edited in
          check
            (Printf.sprintf "site %d (%s) round-trips" s.Edit.s_id
               (Edit.kind_slug s.Edit.s_kind))
            true
            (Parser.parse_program printed = edited))
        sites)
    corpus_bundles

let test_edit_enumeration_deterministic () =
  let src = reference_src Bundles.assignment1 in
  let prog, srcmap = Parser.parse_program_located src in
  let a = Edit.enumerate ~srcmap prog in
  let b = Edit.enumerate ~srcmap prog in
  check "same sites both times" true (a = b);
  Alcotest.(check (list int))
    "ids are the enumeration order"
    (List.init (List.length a) Fun.id)
    (List.map (fun (s : Edit.site) -> s.Edit.s_id) a)

let test_edit_positions () =
  let src = reference_src Bundles.assignment1 in
  let prog, srcmap = Parser.parse_program_located src in
  let sites = Edit.enumerate ~srcmap prog in
  check "every site is positioned (srcmap on)" true
    (List.for_all (fun (s : Edit.site) -> s.Edit.s_pos <> None) sites);
  let bare = Edit.enumerate prog in
  check "no positions without a srcmap" true
    (List.for_all (fun (s : Edit.site) -> s.Edit.s_pos = None) bare);
  check "srcmap does not change the sites otherwise" true
    (List.map (fun (s : Edit.site) -> (s.Edit.s_id, s.Edit.s_before, s.Edit.s_after)) sites
    = List.map (fun (s : Edit.site) -> (s.Edit.s_id, s.Edit.s_before, s.Edit.s_after)) bare)

let test_guard_negation_unwraps () =
  let prog =
    Parser.parse_program
      "void f(int x) { if (!(x < 3)) System.out.println(x); }"
  in
  let negs =
    List.filter
      (fun (s : Edit.site) -> s.Edit.s_kind = Edit.Cond_negate)
      (Edit.enumerate prog)
  in
  Alcotest.(check int) "one guard, one negation site" 1 (List.length negs);
  let s = List.hd negs in
  check "un-negates instead of double-negating" true
    (s.Edit.s_after = "x < 3")

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let test_fault_inject_deterministic () =
  let src = reference_src Bundles.assignment1 in
  match (Mutate.fault_inject ~seed:7 src, Mutate.fault_inject ~seed:7 src) with
  | Some (m1, f1), Some (m2, f2) ->
      check "same seed, same mutant" true (m1 = m2 && f1 = f2);
      check "mutant differs from canonical base" true
        (m1 <> Pretty.program (Parser.parse_program src));
      check "mutant still parses" true
        (match Parser.parse_program m1 with _ -> true
         | exception _ -> false)
  | _ -> Alcotest.fail "reference offers no fault site?"

let test_fault_metadata_matches_catalog () =
  let src = reference_src Bundles.assignment1 in
  let sites = Mutate.fault_sites src in
  check "fault sites exist" true (sites <> []);
  (* every seed's injected fault is one of the enumerated sites *)
  List.iter
    (fun seed ->
      match Mutate.fault_inject ~seed src with
      | None -> Alcotest.fail "injection returned nothing"
      | Some (_, f) ->
          check
            (Printf.sprintf "seed %d fault is in the catalog" seed)
            true
            (List.exists
               (fun (s : Mutate.fault) ->
                 s.Mutate.f_kind = f.Mutate.f_kind
                 && s.Mutate.f_before = f.Mutate.f_before
                 && s.Mutate.f_after = f.Mutate.f_after)
               sites))
    [ 0; 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Ftest runner: report / early exit *)

let suite_setup (b : Bundles.t) =
  let reference = Parser.parse_program (reference_src b) in
  let expected = Runner.expected_outputs b.suite reference in
  (reference, expected)

let test_report_modes_agree_on_pass () =
  List.iter
    (fun (b : Bundles.t) ->
      let reference, expected = suite_setup b in
      let full = Runner.report b.suite ~expected reference in
      let early = Runner.report ~early_exit:true b.suite ~expected reference in
      check "all cases pass" true (full.Runner.rep_failures = []);
      check "full run executed every case" true
        (full.Runner.rep_ran = full.Runner.rep_total);
      check "early-exit report is identical when everything passes" true
        (full = early))
    corpus_bundles

let test_report_early_exit_stops () =
  let b = Bundles.assignment1 in
  let _, expected = suite_setup b in
  (* a program that fails every case immediately *)
  let broken = Parser.parse_program "void assignment1(int[] a) { return; }" in
  let full = Runner.report b.suite ~expected broken in
  let early = Runner.report ~early_exit:true b.suite ~expected broken in
  check "full run collects every failure" true
    (List.length full.Runner.rep_failures = full.Runner.rep_total);
  Alcotest.(check int) "early exit stops after the first" 1
    (List.length early.Runner.rep_failures);
  Alcotest.(check int) "early exit ran exactly one case" 1
    early.Runner.rep_ran;
  check "passes agrees" false (Runner.passes b.suite ~expected broken)

let test_report_malformed_suite_total () =
  let b = Bundles.assignment1 in
  let reference, _ = suite_setup b in
  let r = Runner.report b.suite ~expected:[] reference in
  check "mismatch lands on the pseudo-case" true
    (List.exists (fun (c, _) -> c = "<suite>") r.Runner.rep_failures)

(* ------------------------------------------------------------------ *)
(* Repair search *)

let failing_mutants (b : Bundles.t) ~seeds =
  let base = reference_src b in
  List.filter_map
    (fun seed ->
      match Mutate.fault_inject ~seed base with
      | None -> None
      | Some (msrc, fault) -> Some (msrc, fault))
    seeds

(* The acceptance bar: repair re-finds a passing fix for at least this
   fraction of the failing single-edit mutants.  The catalog is closed
   under inverses, so in practice the measured rate is 1.0 — the pin
   leaves room for suites where an unrelated passing edit is cheaper. *)
let pinned_rate = 0.6

let test_repair_rate_over_mutants () =
  let seeds = List.init 8 Fun.id in
  let failing = ref 0 and repaired = ref 0 in
  List.iter
    (fun (b : Bundles.t) ->
      List.iter
        (fun (msrc, _) ->
          let o = Repair.search b msrc in
          match o.Repair.status with
          | Repair.Already_passing | Repair.Unrepairable _ -> ()
          | Repair.Repaired ->
              incr failing;
              incr repaired;
              (* the hint really is a fix: applying it passes the suite *)
              let h = Option.get o.Repair.hint in
              let _, expected = suite_setup b in
              check "hint source passes the suite" true
                (Runner.passes b.suite ~expected
                   (Parser.parse_program h.Repair.h_source))
          | Repair.No_repair -> incr failing)
        (failing_mutants b ~seeds))
    corpus_bundles;
  check "corpus produced failing mutants" true (!failing > 0);
  let rate = float_of_int !repaired /. float_of_int !failing in
  if rate < pinned_rate then
    Alcotest.failf "repair rate %.2f below pinned %.2f (%d/%d)" rate
      pinned_rate !repaired !failing

let test_repair_jobs_invariant () =
  let seeds = [ 0; 1; 2 ] in
  List.iter
    (fun (b : Bundles.t) ->
      List.iter
        (fun (msrc, _) ->
          let o1 = Repair.search ~jobs:1 b msrc in
          let o4 = Repair.search ~jobs:4 b msrc in
          check "outcome identical at --jobs 1 and 4" true
            (Repair.to_json o1 = Repair.to_json o4))
        (failing_mutants b ~seeds))
    [ Bundles.assignment1; Bundles.mitx_polynomials ]

let test_repair_budget_totality () =
  let b = Bundles.assignment1 in
  let msrc, _ =
    List.hd (failing_mutants b ~seeds:[ 0 ])
  in
  let starved = Repair.search ~fuel:0 b msrc in
  check "zero fuel screens nothing" true
    (starved.Repair.candidates = 0 && starved.Repair.status = Repair.No_repair);
  check "zero fuel reports exhaustion" true starved.Repair.exhausted;
  let tiny = Repair.search ~fuel:1 b msrc in
  check "one unit screens at most one candidate" true
    (tiny.Repair.candidates <= 1);
  check "tiny budgets still terminate and report" true
    (tiny.Repair.status = Repair.No_repair
    || tiny.Repair.status = Repair.Repaired);
  (* deadline axis: an already-expired deadline also degrades cleanly *)
  let expired = Repair.search ~deadline_s:0.0 b msrc in
  check "expired deadline yields no-repair, not a hang" true
    (expired.Repair.candidates = 0
    && expired.Repair.status = Repair.No_repair
    && expired.Repair.exhausted)

let test_repair_unparseable_and_passing () =
  let b = Bundles.assignment1 in
  let garbage = Repair.search b "void oops(" in
  check "garbage input is unrepairable, not a crash" true
    (match garbage.Repair.status with
    | Repair.Unrepairable _ -> true
    | _ -> false);
  let ok = Repair.search b (reference_src b) in
  check "reference is already passing" true
    (ok.Repair.status = Repair.Already_passing)

let test_repair_finds_minimal_edit () =
  (* the classic off-by-one: [i <= a.length] walks off the array *)
  let b = Bundles.assignment1 in
  let buggy =
    "void assignment1(int[] a) {\n\
    \    int odd = 0;\n\
    \    int even = 1;\n\
    \    for (int i = 0; i <= a.length; i++) {\n\
    \        if (i % 2 == 1)\n\
    \            odd += a[i];\n\
    \        if (i % 2 == 0)\n\
    \            even *= a[i];\n\
    \    }\n\
    \    System.out.println(odd);\n\
    \    System.out.println(even);\n\
     }\n"
  in
  let o = Repair.search b buggy in
  match o.Repair.hint with
  | Some h ->
      check "the minimal fix is the bound flip" true
        (h.Repair.h_before = "i <= a.length" && h.Repair.h_after = "i < a.length");
      check "kind is cmp-flip" true (h.Repair.h_kind = Edit.Cmp_flip);
      check "positioned at the for statement" true
        (match h.Repair.h_pos with
        | Some p -> p.Srcmap.line = 4
        | None -> false)
  | None -> Alcotest.fail "no repair found for the off-by-one"

let contains_sub hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_outcome_json_stability () =
  let b = Bundles.assignment1 in
  let item =
    Jfeed_robust.Pipeline.grade_submission ~name:"s.java" b (reference_src b)
  in
  let plain = Jfeed_robust.Outcome.to_json item.Jfeed_robust.Pipeline.outcome in
  check "no repair field unless requested" false
    (contains_sub plain {|"repair":|});
  let with_repair =
    Jfeed_robust.Outcome.to_json ~repair:{|{"status":"no-repair"}|}
      item.Jfeed_robust.Pipeline.outcome
  in
  check "repair field spliced when requested" true
    (contains_sub with_repair {|"repair":{"status":"no-repair"}|})

let suite =
  [
    Alcotest.test_case "edit: apply round-trips through pretty/parse" `Quick
      test_edit_roundtrip;
    Alcotest.test_case "edit: enumeration is deterministic" `Quick
      test_edit_enumeration_deterministic;
    Alcotest.test_case "edit: srcmap positions ride along" `Quick
      test_edit_positions;
    Alcotest.test_case "edit: negated guards are un-negated" `Quick
      test_guard_negation_unwraps;
    Alcotest.test_case "mutate: fault injection is deterministic" `Quick
      test_fault_inject_deterministic;
    Alcotest.test_case "mutate: fault metadata matches the catalog" `Quick
      test_fault_metadata_matches_catalog;
    Alcotest.test_case "ftest: report modes agree on a passing program" `Quick
      test_report_modes_agree_on_pass;
    Alcotest.test_case "ftest: early exit stops at the first failure" `Quick
      test_report_early_exit_stops;
    Alcotest.test_case "ftest: malformed suite stays total" `Quick
      test_report_malformed_suite_total;
    Alcotest.test_case "repair: rate over single-edit mutants" `Slow
      test_repair_rate_over_mutants;
    Alcotest.test_case "repair: byte-identical at --jobs 1/4" `Slow
      test_repair_jobs_invariant;
    Alcotest.test_case "repair: total under budget exhaustion" `Quick
      test_repair_budget_totality;
    Alcotest.test_case "repair: unparseable and already-passing inputs" `Quick
      test_repair_unparseable_and_passing;
    Alcotest.test_case "repair: finds the off-by-one minimal fix" `Quick
      test_repair_finds_minimal_edit;
    Alcotest.test_case "outcome: repair field is opt-in and byte-stable" `Quick
      test_outcome_json_stability;
  ]
