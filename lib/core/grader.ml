(** Submission matching — the paper's Algorithm 2.

    A grading specification lists the *expected methods* Q of an
    assignment; each expected method carries the patterns that apply to it
    (with their expected occurrence counts t̄) and the constraints that
    correlate those patterns.  Grading tries every injective combination
    of expected methods with the submission's methods and keeps the
    combination whose feedback maximizes the cost function Λ — the
    combination assumed to reflect the student's intent. *)

open Jfeed_java
module Epdg = Jfeed_pdg.Epdg

type method_spec = {
  q_name : string;  (** expected method name (documentation / header hint) *)
  q_patterns : (Pattern.t * int) list;  (** p̄(q) with occurrence counts t̄ *)
  q_constraints : Constr.t list;  (** c̄(q) *)
  q_variants : (string * Pattern.t list) list;
      (** §VII future work — the pattern hierarchy: alternative patterns
          that realize the same semantics as a primary pattern (keyed by
          its id).  Only consulted when grading with [~use_variants:true];
          a variant's embeddings are stored under the primary id, so its
          node indices must align with the primary's for the constraints
          to keep their meaning. *)
}

type spec = {
  a_id : string;
  a_title : string;
  a_methods : method_spec list;
  enforce_headers : bool;
      (** when set, an expected method may only be paired with a submission
          method of the same name (the paper's "common practice" remark). *)
}

type truncation =
  | Matcher_exhausted of string
      (** the embedding search for this pattern id was cut short *)
  | Pairing_exhausted
      (** the combination search stopped before trying every pairing *)

type result = {
  comments : Feedback.comment list;
  score : float;  (** Λ of [comments] *)
  pairing : (string * string option) list;
      (** chosen combination: expected method → submission method *)
  truncations : truncation list;
      (** budget cuts incurred while producing this result, in first-hit
          order; empty = the full search ran *)
}

let missing_comments (q : method_spec) =
  List.map
    (fun ((p : Pattern.t), _) ->
      {
        Feedback.about = `Pattern p.Pattern.id;
        in_method = q.q_name;
        verdict = Feedback.Not_expected;
        messages = [ p.Pattern.fb_missing ];
      })
    q.q_patterns
  @ List.map
      (fun (c : Constr.t) ->
        {
          Feedback.about = `Constraint c.Constr.c_id;
          in_method = q.q_name;
          verdict = Feedback.Not_expected;
          messages = [ c.Constr.description ];
        })
      q.q_constraints

let grade_method ?budget ~cache ~note ~use_variants (q : method_spec)
    (h : string) (epdg : Epdg.t) =
  (* 2.1: match every pattern, store embeddings in m̄.  With variants
     enabled, a primary pattern that does not occur the expected number
     of times may be replaced by the first variant that does.  The memo
     cache makes re-examining a (pattern, method) pair — every pairing
     combination does, and the variants layer re-tries primaries — a
     lookup instead of a fresh backtracking search. *)
  let match_pattern (p : Pattern.t) =
    let s = Matcher.embeddings_budgeted ?budget ~cache p epdg in
    if s.Matcher.exhausted then note (Matcher_exhausted p.Pattern.id);
    s.Matcher.found
  in
  let stored = Hashtbl.create 8 in
  let pattern_comments =
    List.map
      (fun ((p : Pattern.t), t) ->
        let ms = match_pattern p in
        let found = List.length (Matcher.occurrences ms) in
        let chosen_p, chosen_ms =
          if found = t || not use_variants then (p, ms)
          else
            let rec try_variants = function
              | [] -> (p, ms)
              | v :: rest ->
                  let vms = match_pattern v in
                  if List.length (Matcher.occurrences vms) = t then (v, vms)
                  else try_variants rest
            in
            try_variants
              (Option.value ~default:[]
                 (List.assoc_opt p.Pattern.id q.q_variants))
        in
        Hashtbl.replace stored p.Pattern.id chosen_ms;
        let c =
          Feedback.of_pattern ~in_method:h chosen_p ~expected:t chosen_ms
        in
        (* Report under the primary pattern's id so downstream tooling and
           the constraints see a stable name. *)
        { c with Feedback.about = `Pattern p.Pattern.id })
      q.q_patterns
  in
  let lookup pid =
    match Hashtbl.find_opt stored pid with Some ms -> ms | None -> []
  in
  (* A pattern "was found as expected" when its comment is not
     Not_expected. *)
  let verdict_of = Hashtbl.create 8 in
  List.iter
    (fun (c : Feedback.comment) ->
      match c.Feedback.about with
      | `Pattern id -> Hashtbl.replace verdict_of id c.Feedback.verdict
      | `Constraint _ -> ())
    pattern_comments;
  let pattern_ok pid =
    match Hashtbl.find_opt verdict_of pid with
    | Some Feedback.Not_expected -> false
    | Some _ -> true
    | None -> not (List.is_empty (lookup pid))
  in
  (* 2.2: constraints. *)
  let constraint_comments =
    List.map
      (fun c -> Constr.to_comment c ~in_method:h epdg lookup ~pattern_ok)
      q.q_constraints
  in
  pattern_comments @ constraint_comments

exception Pairing_cut
(* Unwinds the combination search when the pairing fuel runs out; the
   best combination found so far stands. *)

let grade ?budget ?(normalize = false) ?(use_variants = false)
    ?(inline_helpers = false) (spec : spec) (prog : Ast.program) =
  (* Optional §VII extensions: else-polarity normalization, the pattern
     hierarchy, and inlining of non-expected helper methods.  All default
     to off — the paper's system. *)
  let prog = if normalize then Normalize.flip_negated_else prog else prog in
  let prog =
    if inline_helpers then
      Inline.inline_unexpected
        ~expected:(List.map (fun q -> q.q_name) spec.a_methods)
        prog
    else prog
  in
  (* 1: one EPDG per submission method. *)
  let graphs = Epdg.of_program prog in
  let method_names = List.map fst graphs in
  (* One embedding cache per grading call: every pairing combination
     re-examines the same (pattern, method) searches. *)
  let cache = Matcher.Cache.create () in
  let truncs = ref [] in
  let note t = if not (List.mem t !truncs) then truncs := t :: !truncs in
  let fuel_ok () =
    match budget with
    | None -> true
    | Some b ->
        let ok =
          Jfeed_budget.Budget.spend b Jfeed_budget.Budget.Pairing 1
        in
        if not ok then note Pairing_exhausted;
        ok
  in
  (* 2: best combination by Λ.  Pairings of expected methods with
     distinct submission methods are enumerated lazily — materializing
     the combination list first is exponential in the method count, the
     exact blowup the budget exists to bound.  When there are fewer
     submission methods than expected ones, the unmatchable expected
     methods are paired with [None] (their patterns will all be
     Not_expected — the paper's "does not adhere to the specification"
     case). *)
  let best = ref None in
  let evaluated = ref 0 in
  let consider combo =
    incr evaluated;
    let comments =
      List.concat_map
        (fun (q, h_opt) ->
          match h_opt with
          | None -> missing_comments q
          | Some h ->
              grade_method ?budget ~cache ~note ~use_variants q h
                (List.assoc h graphs))
        combo
    in
    let score = Feedback.score comments in
    let better =
      match !best with None -> true | Some (s, _, _) -> score > s
    in
    if better then
      best :=
        Some (score, comments, List.map (fun (q, h) -> (q.q_name, h)) combo)
  in
  let rec go acc qs available =
    match qs with
    | [] -> consider (List.rev acc)
    | q :: rest ->
        List.iter
          (fun h ->
            if (not spec.enforce_headers) || h = q.q_name then begin
              if not (fuel_ok ()) then raise Pairing_cut;
              go
                ((q, Some h) :: acc)
                rest
                (List.filter (fun h' -> h' <> h) available)
            end)
          available;
        if List.length available < List.length qs then begin
          if not (fuel_ok ()) then raise Pairing_cut;
          go ((q, None) :: acc) rest available
        end
  in
  let tr = Jfeed_trace.Trace.current () in
  Jfeed_trace.Trace.span tr "pairing" (fun () ->
      (try go [] spec.a_methods method_names with Pairing_cut -> ());
      (* No combination completed — header enforcement filtered
         everything, the submission has no methods, or the fuel died
         first.  Grade the all-[None] combination so a result always
         exists. *)
      if !evaluated = 0 then
        consider (List.map (fun q -> (q, None)) spec.a_methods);
      Jfeed_trace.Trace.add_attr tr "combos" (string_of_int !evaluated));
  match !best with
  | Some (score, comments, pairing) ->
      { comments; score; pairing; truncations = List.rev !truncs }
  | None ->
      { comments = []; score = 0.0; pairing = []; truncations = List.rev !truncs }

(** Parse then grade; [Error] carries a human-readable parse diagnostic. *)
let grade_source ?budget ?normalize ?use_variants ?inline_helpers spec src =
  match Parser.parse_program src with
  | prog ->
      Ok (grade ?budget ?normalize ?use_variants ?inline_helpers spec prog)
  | exception Parser.Parse_error (msg, line, col) ->
      Error (Printf.sprintf "parse error at %d:%d: %s" line col msg)
  | exception Lexer.Lex_error (msg, line, col) ->
      Error (Printf.sprintf "lex error at %d:%d: %s" line col msg)
