(** Total outcome taxonomy for the resilient grading pipeline.  See
    outcome.mli for the contract. *)

open Jfeed_core
module Trace = Jfeed_trace.Trace

type reason =
  | Matcher_exhausted of string
  | Pairing_exhausted
  | Interp_exhausted
  | Method_skipped of string * string
  | Crash_recovered of string
  | Tests_skipped of string

(* Compact slug, prefixed by the stage: "matcher:p_loop", "pairing",
   "interp", "skipped:<method>", "crash", "tests". *)
let string_of_reason = function
  | Matcher_exhausted id -> "matcher:" ^ id
  | Pairing_exhausted -> "pairing"
  | Interp_exhausted -> "interp"
  | Method_skipped (m, _) -> "skipped:" ^ m
  | Crash_recovered _ -> "crash"
  | Tests_skipped _ -> "tests"

let stage_of_reason = function
  | Matcher_exhausted _ -> "matcher"
  | Pairing_exhausted -> "pairing"
  | Interp_exhausted -> "interp"
  | Method_skipped _ | Crash_recovered _ -> "ladder"
  | Tests_skipped _ -> "tests"

type test_status =
  | Tests_passed
  | Tests_failed of string * string
  | Tests_not_run

type report = {
  grading : Grader.result;
  tests : test_status;
  diags : Jfeed_analysis.Diagnostic.t list;
}

type diagnostic = { stage : string; message : string }

type t =
  | Graded of report
  | Degraded of report * reason list
  | Rejected of diagnostic

let classify = function
  | Graded _ -> "graded"
  | Degraded _ -> "degraded"
  | Rejected _ -> "rejected"

let report = function
  | Graded r | Degraded (r, _) -> Some r
  | Rejected _ -> None

let reasons = function
  | Graded _ | Rejected _ -> []
  | Degraded (_, rs) -> rs

let tests_to_json = function
  | Tests_passed -> {|"passed"|}
  | Tests_failed (case, _) ->
      Printf.sprintf {|{"failed":%s}|} (Trace.json_string case)
  | Tests_not_run -> {|"not-run"|}

let to_json ?file ?(comments = false) ?repair
    ?(trace = Trace.disabled) t =
  let prefix =
    match file with
    | Some f -> Printf.sprintf {|"file":%s,|} (Trace.json_string f)
    | None -> ""
  in
  (* The repair hint and the per-stage trace summary ride along only
     when supplied — output without them stays byte-identical.  The
     hint arrives pre-rendered so this module stays repair-agnostic
     (the repair subsystem depends on grading, not the reverse). *)
  let repair_field =
    match repair with Some r -> {|,"repair":|} ^ r | None -> ""
  in
  let trace_field =
    if Trace.enabled trace then
      {|,"trace":|} ^ Trace.summary_json trace
    else ""
  in
  match t with
  | Graded r | Degraded (r, _) ->
      (* the batch summary keeps one line per submission, so it carries
         only the diagnostic count; the serving payload (comments on)
         also carries the full diagnostics array *)
      let diag_fields =
        if comments then
          Printf.sprintf {|,"diags":%d,"diagnostics":[%s]|}
            (List.length r.diags)
            (String.concat ","
               (List.map Jfeed_analysis.Diagnostic.to_json r.diags))
        else Printf.sprintf {|,"diags":%d|} (List.length r.diags)
      in
      let comment_field =
        if comments then
          Printf.sprintf {|,"comments":[%s]|}
            (String.concat ","
               (List.map Feedback.comment_to_json r.grading.Grader.comments))
        else ""
      in
      Printf.sprintf
        {|{%s"outcome":%s,"score":%g,"max":%d,"tests":%s,"reasons":[%s]%s%s%s%s}|}
        prefix
        (Trace.json_string (classify t))
        r.grading.Grader.score
        (List.length r.grading.Grader.comments)
        (tests_to_json r.tests)
        (String.concat ","
           (List.map
              (fun x -> Trace.json_string (string_of_reason x))
              (reasons t)))
        diag_fields comment_field repair_field trace_field
  | Rejected d ->
      Printf.sprintf {|{%s"outcome":"rejected","stage":%s,"error":%s%s%s}|}
        prefix
        (Trace.json_string d.stage)
        (Trace.json_string d.message)
        repair_field trace_field
