(** Seeded request streams for the three serving workloads.

    A stream is a pure function of (workload, seed, request count): the
    same arguments give byte-identical request lines.  Everything is
    rendered before the daemon is spawned, so generation never lands in
    a timed phase. *)

module Bundles = Jfeed_kb.Bundles
module Spec = Jfeed_gen.Spec
module Mutate = Jfeed_gen.Mutate
module Normalize = Jfeed_service.Normalize

type kind = Fresh_tests | Fresh_static | Resubmit

type t = {
  name : string;
  kind : kind;
  assignments : string list;  (** round-robin order of the timed stream *)
  window : int;  (** requests in flight per connection *)
  lockstep : bool;
      (** connections send together, once all their requests are
          answered (see README.md: why fresh-static pairs its misses) *)
  per_second : int;
      (** a run sends [per_second × --seconds] timed requests: a fixed
          count, never a duration *)
  traced : int;  (** requests the traced pass replays (a stream prefix) *)
  pool_pairs : int;  (** miss pairs the pool-overhead probe grades *)
}

let esc_tests =
  [ "esc-LAB-3-P1-V1"; "esc-LAB-3-P2-V1"; "esc-LAB-3-P3-V2"; "esc-LAB-3-P4-V2" ]

let rit = [ "rit-all-g-medals"; "rit-medals-by-ath" ]
let all_ids = List.map (fun b -> b.Bundles.gen.Spec.id) Bundles.all

let all =
  [
    {
      name = "fresh-tests";
      kind = Fresh_tests;
      assignments = esc_tests;
      window = 1;
      lockstep = false;
      per_second = 40;
      traced = 160;
      pool_pairs = 24;
    };
    {
      name = "fresh-static";
      kind = Fresh_static;
      assignments = rit;
      window = 1;
      lockstep = true;
      per_second = 240;
      traced = 1000;
      pool_pairs = 200;
    };
    {
      name = "resubmit";
      kind = Resubmit;
      assignments = all_ids;
      window = 8;
      lockstep = false;
      per_second = 2400;
      traced = 4000;
      pool_pairs = 0;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(** Warm-set size per assignment for [resubmit]. *)
let warm_per_assignment = 10

(** The warm set is drawn with this fixed seed, so every run's set-up
    grades the same 120 submissions: drawn with the run's seed, the
    varying share of step-limit esc submissions among them moved
    set-up time between 0.73 and 1.59 s over twenty runs.  The run's
    seed picks and mutates the resubmissions. *)
let warm_seed = 0

(** Distinct mutant lines [resubmit] pre-renders; the timed phase cycles
    over them (a repeated line is the same work: every request is keyed
    from scratch). *)
let mutant_pool = 4000

(** One submission: what the daemon is sent and what it is keyed by. *)
type sub = { assignment : string; source : string; key : string }

type stream = {
  workload : t;
  seed : int;
  count : int;  (** timed requests; request [i] sends [lines.(i mod |lines|)] *)
  warmup : sub array;  (** one reference solution per assignment *)
  warm : sub array;  (** [resubmit]'s warm set, graded during set-up *)
  lines : sub array;  (** distinct timed submissions *)
  origin : int array;
      (** [origin.(k)]: index in [originals] of the submission whose
          graded payload [lines.(k)] must receive *)
  originals : sub array;  (** [lines] itself, or [resubmit]'s warm set *)
}

let bundle id =
  match Bundles.find id with
  | Some b -> b
  | None -> invalid_arg ("unknown assignment " ^ id)

let key_of ~assignment source =
  fst
    (Normalize.cache_key ~assignment ~fuel:None ~deadline_s:None
       ~with_tests:true source)

let sub assignment source = { assignment; source; key = key_of ~assignment source }

(* JSON string literal, escaping what RFC 8259 requires. *)
let json_string s =
  let b = Buffer.create (String.length s + 16) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** The grade request line for a submission (no trailing newline).  No
    id, fuel, deadline or test override: the daemon's defaults apply. *)
let request_line s =
  Printf.sprintf {|{"op":"grade","assignment":%s,"source":%s}|}
    (json_string s.assignment) (json_string s.source)

(* Per-(seed, salt) sampler seeds, so each assignment draws its own
   sequence. *)
let mix seed salt = (seed * 1_000_003) + (salt * 7919) + 17

(* A seeded pick sequence independent of the sampler. *)
let lcg seed =
  let st = ref (((seed * 2862933555777941757) + 3037000493) land max_int) in
  fun bound ->
    st := ((!st * 0x5DEECE66D) + 0xB) land max_int;
    (!st lsr 16) mod bound

(* [n] submissions of one assignment drawn with [Spec.sample_indices],
   skipping any whose cache key is already in [seen] (and adding the
   kept ones): α-equivalent draws would be cache hits, not misses. *)
let draw_distinct ~seen ~seed ~salt id n =
  let spec = (bundle id).Bundles.gen in
  let rec go attempt acc need =
    if need = 0 then List.rev acc
    else if attempt > 8 then
      failwith (Printf.sprintf "%s: cannot draw %d distinct submissions" id n)
    else
      let idx =
        Spec.sample_indices spec ~n:((2 * need) + 16)
          ~seed:(mix seed (salt + (1000 * attempt)))
      in
      let acc, need =
        List.fold_left
          (fun (acc, need) i ->
            if need = 0 then (acc, need)
            else
              let s = sub id (Spec.source_of_index spec i) in
              if Hashtbl.mem seen s.key then (acc, need)
              else begin
                Hashtbl.add seen s.key ();
                (s :: acc, need - 1)
              end)
          (acc, need) idx
      in
      go (attempt + 1) acc need
  in
  Array.of_list (go 0 [] n)

let references ids =
  Array.of_list
    (List.map (fun id -> sub id (Spec.reference (bundle id).Bundles.gen)) ids)

(* Round robin over assignments: request i is drawn from assignment
   i mod |assignments|. *)
let round_robin ~seen ~seed ids count =
  let ids = Array.of_list ids in
  let a = Array.length ids in
  let per =
    Array.mapi
      (fun j id ->
        draw_distinct ~seen ~seed ~salt:j id ((count - j + a - 1) / a))
      ids
  in
  Array.init count (fun i -> per.(i mod a).(i / a))

let generate w ~seed ~count =
  if count < 1 then invalid_arg "Workload.generate: count must be positive";
  let warmup = references w.assignments in
  let seen = Hashtbl.create (2 * count) in
  Array.iter (fun s -> Hashtbl.replace seen s.key ()) warmup;
  match w.kind with
  | Fresh_tests | Fresh_static ->
      let lines = round_robin ~seen ~seed w.assignments count in
      {
        workload = w;
        seed;
        count;
        warmup;
        warm = [||];
        lines;
        origin = Array.init count Fun.id;
        originals = lines;
      }
  | Resubmit ->
      let warm =
        Array.concat
          (List.mapi
             (fun j id -> draw_distinct ~seen ~seed:warm_seed ~salt:j id warm_per_assignment)
             w.assignments)
      in
      let pick = lcg seed in
      let n = min count mutant_pool in
      let origin = Array.init n (fun _ -> pick (Array.length warm)) in
      let lines =
        Array.mapi
          (fun k o ->
            let orig = warm.(o) in
            sub orig.assignment
              (Mutate.rename_and_reflow ~seed:(mix seed k) orig.source))
          origin
      in
      { workload = w; seed; count; warmup; warm; lines; origin; originals = warm }

(** Hex MD5 of everything the daemon will be sent, in order. *)
let digest st =
  let b = Buffer.create 4096 in
  let add s =
    Buffer.add_string b (Digest.string (request_line s))
  in
  Buffer.add_string b (Printf.sprintf "%s/%d/%d/" st.workload.name st.seed st.count);
  Array.iter add st.warmup;
  Array.iter add st.warm;
  Array.iter add st.lines;
  Array.iter (fun o -> Buffer.add_string b (string_of_int o ^ ",")) st.origin;
  Digest.to_hex (Digest.string (Buffer.contents b))

(** The workload's defining properties, checked before any timing:
    [fresh-*] requests have pairwise distinct cache keys, none of them
    a warm-up's; every [resubmit] request's key is its warm original's
    (so the daemon can only answer it from the cache). *)
let check st =
  let keys a = Array.to_list (Array.map (fun s -> s.key) a) in
  let table l =
    let h = Hashtbl.create 64 in
    List.iter (fun k -> Hashtbl.replace h k ()) l;
    h
  in
  let warmup = table (keys st.warmup) in
  match st.workload.kind with
  | Fresh_tests | Fresh_static ->
      let seen = Hashtbl.create (2 * st.count) in
      let bad =
        Array.exists
          (fun s ->
            let dup = Hashtbl.mem seen s.key || Hashtbl.mem warmup s.key in
            Hashtbl.replace seen s.key ();
            dup)
          st.lines
      in
      if bad then Error "a fresh request repeats a cache key" else Ok ()
  | Resubmit ->
      let warm = table (keys st.warm) in
      if Hashtbl.length warm <> Array.length st.warm then
        Error "the warm set repeats a cache key"
      else if List.exists (Hashtbl.mem warmup) (keys st.warm) then
        Error "the warm set repeats a warm-up"
      else if Array.exists2 (fun l o -> l.key <> st.warm.(o).key) st.lines st.origin then
        Error "a resubmission's key differs from its warm original's"
      else Ok ()
