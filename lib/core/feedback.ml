(** Feedback comments and the cost function Λ (paper §V, equation 3). *)

open Jfeed_exprmatch

type verdict = Correct | Incorrect | Not_expected

type comment = {
  about : [ `Pattern of string | `Constraint of string ];
  in_method : string;  (** submission method the comment refers to *)
  verdict : verdict;
  messages : string list;  (** instantiated natural-language feedback *)
}

let lambda = function Correct -> 1.0 | Incorrect -> 0.5 | Not_expected -> 0.0

(** Λ(B) — guides the best-effort choice among method combinations. *)
let score comments =
  List.fold_left (fun acc c -> acc +. lambda c.verdict) 0.0 comments

let string_of_verdict = function
  | Correct -> "correct"
  | Incorrect -> "incorrect"
  | Not_expected -> "not-expected"

(** ProvideFeedback (Algorithm 2, line 15).  [t] is the expected number of
    occurrences t̄(q, p); [t = 0] encodes a "bad pattern" the student must
    avoid. *)
let of_pattern ~in_method (p : Pattern.t) ~expected:t ms =
  let occs = Matcher.occurrences ms in
  let found = List.length occs in
  if found <> t then
    let messages = [ Template.instantiate p.Pattern.fb_missing ~gamma:[] ] in
    {
      about = `Pattern p.Pattern.id;
      in_method;
      verdict = Not_expected;
      messages;
    }
  else if t = 0 then
    (* The bad pattern is absent, as required. *)
    {
      about = `Pattern p.Pattern.id;
      in_method;
      verdict = Correct;
      messages = [ Template.instantiate p.Pattern.fb_present ~gamma:[] ];
    }
  else
    let all_correct = List.for_all Matcher.is_fully_correct occs in
    let node_messages (m : Matcher.embedding) =
      List.filter_map
        (fun (u, (_, mark)) ->
          let pn = p.Pattern.nodes.(u) in
          let text =
            match mark with
            | Matcher.Exact -> pn.Pattern.fb_correct
            | Matcher.Approx -> pn.Pattern.fb_incorrect
          in
          Option.map (Template.instantiate ~gamma:m.Matcher.gamma) text)
        m.Matcher.iota
    in
    let messages =
      match occs with
      | [] -> []
      | first :: _ ->
          (* Only claim the pattern's success message when every node
             matched its exact template; otherwise lead with the pattern's
             neutral description. *)
          let head =
            if all_correct then
              Template.instantiate p.Pattern.fb_present
                ~gamma:first.Matcher.gamma
            else p.Pattern.description ^ " — recognized, with problems:"
          in
          head :: List.concat_map node_messages occs
    in
    {
      about = `Pattern p.Pattern.id;
      in_method;
      verdict = (if all_correct then Correct else Incorrect);
      messages;
    }

let render c =
  let tag =
    match c.about with
    | `Pattern id -> Printf.sprintf "pattern %s" id
    | `Constraint id -> Printf.sprintf "constraint %s" id
  in
  Printf.sprintf "[%s | %s | %s]\n%s" c.in_method tag
    (string_of_verdict c.verdict)
    (String.concat "\n" (List.map (fun m -> "  - " ^ m) c.messages))

(* ------------------------------------------------------------------ *)
(* Machine-readable output (LMS integration)                           *)

let comment_to_json c =
  let kind, id =
    match c.about with
    | `Pattern id -> ("pattern", id)
    | `Constraint id -> ("constraint", id)
  in
  Printf.sprintf
    {|{"kind":"%s","id":"%s","method":"%s","verdict":"%s","messages":[%s]}|}
    kind (Jfeed_trace.Trace.json_escape id)
    (Jfeed_trace.Trace.json_escape c.in_method)
    (string_of_verdict c.verdict)
    (String.concat "," (List.map Jfeed_trace.Trace.json_string c.messages))

(** Render a full comment list as a JSON document with the score. *)
let to_json comments =
  Printf.sprintf {|{"score":%g,"max":%d,"comments":[%s]}|} (score comments)
    (List.length comments)
    (String.concat "," (List.map comment_to_json comments))
