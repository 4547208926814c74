(** Functional testing of submissions (the paper's column T / discrepancy
    baseline).

    A suite is a set of input cases for an assignment's entry method.
    Expected outputs are produced by running the *reference solution*
    through the same interpreter; a submission passes when its stdout
    matches the expected output exactly on every case.  The comparison is
    deliberately order-sensitive — that is what makes print-order variants
    show up as discrepancies in the paper (§VI-B, Assignment 1). *)

open Jfeed_java
open Jfeed_interp

type case = {
  label : string;
  args : Value.t list;
  files : (string * string) list;
}

type suite = { entry : string; cases : case list; max_steps : int }

type verdict =
  | Pass
  | Fail of { case : string; reason : string }

(* [prog] is compiled once per suite run, with the shared grading fuel
   pool that the interpreter spends one unit per execution step from. *)
let run_case suite prog (c : case) =
  (* One [interp] span per executed test case; the reference runs that
     produce expected outputs trace the same way, nested under whatever
     stage invoked them. *)
  let tr = Jfeed_trace.Trace.current () in
  Jfeed_trace.Trace.span tr "interp" (fun () ->
      let out =
        Interp.run_compiled prog
          ~config:{ Interp.files = c.files; max_steps = suite.max_steps }
          ~entry:suite.entry ~args:c.args
      in
      if Jfeed_trace.Trace.enabled tr then begin
        Jfeed_trace.Trace.add_attr tr "case" c.label;
        Jfeed_trace.Trace.add_attr tr "steps" (string_of_int out.Interp.steps)
      end;
      out)

(** Outputs of the reference solution, one per case.  Raises
    [Invalid_argument] if the reference itself fails — a harness bug, not
    a grading outcome. *)
let expected_outputs suite (reference : Ast.program) =
  let reference = Interp.compile reference in
  List.map
    (fun c ->
      let out = run_case suite reference c in
      match out.Interp.error with
      | None -> out.Interp.stdout
      | Some e ->
          invalid_arg
            (Printf.sprintf "reference solution failed on %s: %s" c.label e))
    suite.cases

type report = {
  rep_total : int;
  rep_ran : int;
  rep_passed : int;
  rep_failures : (string * string) list;
}

let report ?budget ?(early_exit = false) suite ~expected prog =
  let prog = Interp.compile ?budget prog in
  let total = List.length suite.cases in
  let finish ran passed fails =
    { rep_total = total; rep_ran = ran; rep_passed = passed;
      rep_failures = List.rev fails }
  in
  let rec go cases expects ran passed fails =
    match (cases, expects) with
    | [], [] -> finish ran passed fails
    | c :: cs, want :: ws -> (
        let out = run_case suite prog c in
        let failed reason =
          let fails = (c.label, reason) :: fails in
          if early_exit then finish (ran + 1) passed fails
          else go cs ws (ran + 1) passed fails
        in
        match out.Interp.error with
        | Some e -> failed ("error: " ^ e)
        | None ->
            if out.Interp.stdout = want then go cs ws (ran + 1) (passed + 1) fails
            else
              failed
                (Printf.sprintf "expected %S, got %S" want out.Interp.stdout))
    | _ ->
        (* A malformed test spec (wrong number of expected outputs) is a
           suite bug, but it must not crash a grading batch: it is a
           failing entry on the pseudo-case ["<suite>"], never an
           exception. *)
        finish ran passed
          (( "<suite>",
             Printf.sprintf
               "expected-output count mismatch: %d cases, %d expected outputs"
               (List.length suite.cases)
               (List.length expected) )
          :: fails)
  in
  go suite.cases expected 0 0 []

let run ?budget suite ~expected prog =
  match (report ?budget ~early_exit:true suite ~expected prog).rep_failures with
  | [] -> Pass
  | (case, reason) :: _ -> Fail { case; reason }

let passes ?budget suite ~expected prog = run ?budget suite ~expected prog = Pass
