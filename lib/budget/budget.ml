(** Grading budgets: a shared fuel pool with an optional CPU-time
    deadline, threaded through the matcher, the pairing search and the
    interpreter.  See budget.mli. *)

type stage = Matcher | Pairing | Interp

let string_of_stage = function
  | Matcher -> "matcher"
  | Pairing -> "pairing"
  | Interp -> "interp"

let int_of_stage = function Matcher -> 0 | Pairing -> 1 | Interp -> 2

let stages = [ Matcher; Pairing; Interp ]

type t = {
  fuel : int option;  (** total allowance; [None] = unlimited *)
  deadline : float option;  (** absolute {!Sys.time} cutoff *)
  mutable used : int;
  stage_used : int array;  (** fuel per {!stage}, indexed by {!int_of_stage} *)
  mutable dead : bool;  (** latched once either axis is exhausted *)
  mutable hit_list : stage list;  (** reverse first-hit order, deduped *)
}

let make fuel deadline =
  {
    fuel;
    deadline;
    used = 0;
    stage_used = Array.make 3 0;
    dead = false;
    hit_list = [];
  }

let unlimited () = make None None

let create ?fuel ?deadline_s () =
  let deadline = Option.map (fun s -> Sys.time () +. s) deadline_s in
  make fuel deadline

let record_hit b stage =
  if not (List.mem stage b.hit_list) then b.hit_list <- stage :: b.hit_list

(* Polling the clock on every interpreter step would dominate the step
   itself; the deadline only needs ~ms resolution, so a spend polls when
   it reaches or crosses a multiple of 1024 units: every 1024 single-unit
   spends, and at most once for a bulk spend.  A spend of 0 polls when
   the total sits on a multiple. *)
let poll_every = 1024

let polls b n =
  if n <= 1 then b.used mod poll_every = 0
  else (b.used - n) / poll_every < b.used / poll_every

let over_deadline b n =
  match b.deadline with
  | Some d when polls b n -> Sys.time () > d
  | _ -> false

let spend b stage n =
  if b.dead then begin
    record_hit b stage;
    false
  end
  else begin
    b.used <- b.used + n;
    let i = int_of_stage stage in
    b.stage_used.(i) <- b.stage_used.(i) + n;
    let out_of_fuel =
      match b.fuel with Some f -> b.used > f | None -> false
    in
    if out_of_fuel || over_deadline b n then begin
      b.dead <- true;
      record_hit b stage;
      false
    end
    else true
  end

let check b stage = spend b stage 0

let split total ~ways =
  if ways <= 0 then invalid_arg "Budget.split: ways must be positive";
  let q = total / ways and r = total mod ways in
  List.init ways (fun i -> q + if i < r then 1 else 0)

let spent b = b.used

let spent_by b =
  List.map
    (fun stage -> (string_of_stage stage, b.stage_used.(int_of_stage stage)))
    stages

let remaining b =
  Option.map (fun f -> max 0 (f - b.used)) b.fuel

let headroom b =
  if b.dead then 0
  else
    let fuel = match b.fuel with Some f -> f - b.used | None -> max_int in
    match b.deadline with
    | Some _ -> min fuel (poll_every - 1 - (b.used mod poll_every))
    | None -> fuel

let exhausted b = b.dead

let hits b = List.rev b.hit_list
