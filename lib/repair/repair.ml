(** Minimal-fix search over the single-edit space.  See repair.mli. *)

open Jfeed_java
module Budget = Jfeed_budget.Budget
module Runner = Jfeed_ftest.Runner
module Trace = Jfeed_trace.Trace
module Pool = Jfeed_parallel.Pool

type status =
  | Already_passing
  | Repaired
  | No_repair
  | Unrepairable of string

type hint = {
  h_kind : Edit.kind;
  h_meth : string;
  h_pos : Srcmap.pos option;
  h_before : string;
  h_after : string;
  h_distance : int;
  h_rank : int;
  h_source : string;
}

type outcome = {
  status : status;
  hint : hint option;
  candidates : int;
  sites : int;
  passing : int;
  fuel_spent : int;
  exhausted : bool;
}

let default_fuel = 10_000_000

(* Per-candidate screening cap: one pathological candidate (e.g. an edit
   that makes a loop infinite) burns at most this much of the repair
   budget before it is disqualified. *)
let candidate_fuel = 200_000

(* How many candidates each Pool.map round screens.  A fixed constant —
   never derived from [jobs] — so the budget truncation point, and hence
   the whole outcome, is identical at every parallelism width. *)
let batch_size = 32

(* Process-wide totals for the serve metrics exposition. *)
let candidates_atomic = Atomic.make 0
let found_atomic = Atomic.make 0
let fuel_atomic = Atomic.make 0
let candidates_total () = Atomic.get candidates_atomic
let found_total () = Atomic.get found_atomic
let fuel_total () = Atomic.get fuel_atomic

(* Error-model likelihood order: comparison and off-by-one slips
   dominate introductory bug corpora; wholesale guard negation is the
   long shot, tried last. *)
let kind_rank = function
  | Edit.Cmp_flip -> 0
  | Edit.Const_tweak -> 1
  | Edit.Arith_swap -> 2
  | Edit.Logic_swap -> 3
  | Edit.Assign_swap -> 4
  | Edit.Incdec_flip -> 5
  | Edit.Cond_negate -> 6

let protect f =
  try Ok (f ()) with
  | Stack_overflow -> Error "stack overflow"
  | Out_of_memory -> Error "out of memory"
  | Invalid_argument m -> Error ("invalid argument: " ^ m)
  | Failure m -> Error m
  | e -> Error (Printexc.to_string e)

(* Two-row Levenshtein over the canonical renderings — the minimality
   metric that ranks passing candidates. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) Fun.id in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      cur.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

(* Submission methods the pattern grader flags (any non-[Correct]
   comment): edits inside them are searched first — the KB already
   points at where the bug lives.  Best effort under its own small
   budget; a grader crash just loses the prioritization, never the
   search. *)
let flagged_methods grading prog =
  let budget = Budget.create ~fuel:500_000 () in
  match protect (fun () -> Jfeed_core.Grader.grade ~budget grading prog) with
  | Error _ -> []
  | Ok r ->
      List.fold_left
        (fun acc (c : Jfeed_core.Feedback.comment) ->
          if c.verdict <> Jfeed_core.Feedback.Correct && c.in_method <> ""
             && not (List.mem c.in_method acc)
          then c.in_method :: acc
          else acc)
        [] r.Jfeed_core.Grader.comments

let empty_outcome status =
  {
    status;
    hint = None;
    candidates = 0;
    sites = 0;
    passing = 0;
    fuel_spent = 0;
    exhausted = false;
  }

let search ?(fuel = default_fuel) ?deadline_s ?(jobs = 1) (b : Jfeed_kb.Bundles.t)
    src =
  let tr = Trace.current () in
  Trace.span tr "repair" @@ fun () ->
  let finish o =
    ignore (Atomic.fetch_and_add candidates_atomic o.candidates);
    if o.status = Repaired then ignore (Atomic.fetch_and_add found_atomic 1);
    ignore (Atomic.fetch_and_add fuel_atomic o.fuel_spent);
    Trace.count tr "repair.candidates" o.candidates;
    Trace.count tr "repair.found" (if o.status = Repaired then 1 else 0);
    Trace.count tr "repair.fuel" o.fuel_spent;
    if Trace.enabled tr then begin
      Trace.add_attr tr "sites" (string_of_int o.sites);
      Trace.add_attr tr "candidates" (string_of_int o.candidates)
    end;
    o
  in
  match Parser.parse_program_located src with
  | exception Parser.Parse_error (msg, line, col) ->
      finish
        (empty_outcome
           (Unrepairable (Printf.sprintf "parse error at %d:%d: %s" line col msg)))
  | exception Lexer.Lex_error (msg, line, col) ->
      finish
        (empty_outcome
           (Unrepairable (Printf.sprintf "lex error at %d:%d: %s" line col msg)))
  | exception e -> finish (empty_outcome (Unrepairable (Printexc.to_string e)))
  | prog, srcmap -> (
      let expected =
        protect (fun () ->
            let reference = Parser.parse_program (Jfeed_gen.Spec.reference b.gen) in
            Runner.expected_outputs b.suite reference)
      in
      match expected with
      | Error e ->
          finish (empty_outcome (Unrepairable ("reference suite failed: " ^ e)))
      | Ok expected ->
          if Runner.passes b.suite ~expected prog then
            finish (empty_outcome Already_passing)
          else begin
            let sites = Edit.enumerate ~srcmap prog in
            let nsites = List.length sites in
            let flagged = flagged_methods b.grading prog in
            let priority (s : Edit.site) =
              ( (if List.mem s.Edit.s_meth flagged then 0 else 1),
                kind_rank s.Edit.s_kind,
                s.Edit.s_id )
            in
            let order =
              List.sort (fun a b -> compare (priority a) (priority b)) sites
            in
            let arr = Array.of_list order in
            let eval (site : Edit.site) =
              let budget = Budget.create ~fuel:candidate_fuel () in
              let cand = Edit.apply prog site in
              let pass =
                match
                  protect (fun () -> Runner.passes ~budget b.suite ~expected cand)
                with
                | Ok p -> p
                | Error _ -> false
              in
              (* every candidate costs at least one unit, so a zero-fuel
                 budget screens nothing and the loop always progresses *)
              (site, pass, 1 + Budget.spent budget, cand)
            in
            let t0 = Sys.time () in
            let tried = ref [] in
            let spent = ref 0 in
            let exhausted = ref false in
            let n = Array.length arr in
            let i = ref 0 in
            (try
               while !i < n do
                 (match deadline_s with
                 | Some d when Sys.time () -. t0 >= d ->
                     exhausted := true;
                     raise Exit
                 | _ -> ());
                 if !spent >= fuel then begin
                   exhausted := true;
                   raise Exit
                 end;
                 let k = min batch_size (n - !i) in
                 let round = Pool.map ~jobs ~f:eval (Array.sub arr !i k) in
                 Array.iter
                   (fun ((_, _, cost, _) as r) ->
                     (* charge in priority order: candidate k is screened
                        iff the cumulative cost before it fit the budget —
                        exactly the sequential semantics, whatever order
                        the pool actually ran them in *)
                     if !spent >= fuel then begin
                       exhausted := true;
                       raise Exit
                     end;
                     spent := !spent + cost;
                     tried := r :: !tried)
                   round;
                 i := !i + k
               done
             with Exit -> ());
            let tried = List.rev !tried in
            let ncand = List.length tried in
            let original = Pretty.program prog in
            let best, npassing =
              List.fold_left
                (fun (best, np) (site, pass, _, cand) ->
                  if not pass then (best, np)
                  else
                    let rendered = Pretty.program cand in
                    let dist = levenshtein original rendered in
                    let entry = (site, dist, rendered) in
                    let best =
                      match best with
                      | None -> Some (entry, np + 1)
                      | Some (((_, bdist, _) as bentry), brank) ->
                          if dist < bdist then Some (entry, np + 1)
                          else Some (bentry, brank)
                    in
                    (best, np + 1))
                (None, 0) tried
            in
            (* [rank] above is the 1-based position among *passing*
               candidates; the hint reports the position in the full try
               order instead, recomputed here from the winning site. *)
            let outcome =
              match best with
              | Some (((site : Edit.site), dist, rendered), _) ->
                  let rank =
                    let rec find i = function
                      | [] -> i
                      | (s, _, _, _) :: tl ->
                          if s == site then i + 1 else find (i + 1) tl
                    in
                    find 0 tried
                  in
                  {
                    status = Repaired;
                    hint =
                      Some
                        {
                          h_kind = site.Edit.s_kind;
                          h_meth = site.Edit.s_meth;
                          h_pos = site.Edit.s_pos;
                          h_before = site.Edit.s_before;
                          h_after = site.Edit.s_after;
                          h_distance = dist;
                          h_rank = rank;
                          h_source = rendered;
                        };
                    candidates = ncand;
                    sites = nsites;
                    passing = npassing;
                    fuel_spent = !spent;
                    exhausted = !exhausted;
                  }
              | None ->
                  {
                    status = No_repair;
                    hint = None;
                    candidates = ncand;
                    sites = nsites;
                    passing = 0;
                    fuel_spent = !spent;
                    exhausted = !exhausted;
                  }
            in
            finish outcome
          end)

let status_slug = function
  | Already_passing -> "already-passing"
  | Repaired -> "repaired"
  | No_repair -> "no-repair"
  | Unrepairable _ -> "unrepairable"

let to_json o =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf {|{"status":%s|}
       (Trace.json_string (status_slug o.status)));
  (match o.hint with
  | None -> ()
  | Some h ->
      Buffer.add_string b
        (Printf.sprintf {|,"kind":%s,"method":%s|}
           (Trace.json_string (Edit.kind_slug h.h_kind))
           (Trace.json_string h.h_meth));
      (match h.h_pos with
      | Some p ->
          Buffer.add_string b
            (Printf.sprintf {|,"line":%d,"col":%d|} p.Srcmap.line p.Srcmap.col)
      | None -> ());
      Buffer.add_string b
        (Printf.sprintf {|,"before":%s,"after":%s,"distance":%d,"rank":%d|}
           (Trace.json_string h.h_before)
           (Trace.json_string h.h_after)
           h.h_distance h.h_rank));
  (match o.status with
  | Unrepairable e ->
      Buffer.add_string b
        (Printf.sprintf {|,"error":%s|} (Trace.json_string e))
  | _ -> ());
  Buffer.add_string b
    (Printf.sprintf {|,"candidates":%d,"sites":%d,"passing":%d,"exhausted":%s,"fuel":%d}|}
       o.candidates o.sites o.passing
       (if o.exhausted then "true" else "false")
       o.fuel_spent);
  Buffer.contents b

let render o =
  match (o.status, o.hint) with
  | Already_passing, _ ->
      "already passing: the submission passes all functional tests; nothing \
       to repair"
  | Repaired, Some h ->
      let where =
        match h.h_pos with
        | Some p -> Printf.sprintf " at line %d" p.Srcmap.line
        | None -> ""
      in
      Printf.sprintf
        "repair found: change `%s` to `%s`%s in %s [%s]\n\
         minimal fix at edit distance %d; screened %d of %d candidate edits \
         (%d passing)"
        h.h_before h.h_after where h.h_meth
        (Edit.kind_slug h.h_kind)
        h.h_distance o.candidates o.sites o.passing
  | No_repair, _ ->
      Printf.sprintf
        "no repair found within budget: screened %d of %d candidate edits%s"
        o.candidates o.sites
        (if o.exhausted then " (budget exhausted)" else "")
  | Unrepairable e, _ -> "cannot repair: " ^ e
  | Repaired, None -> assert false
