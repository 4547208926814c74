(** Domain worker pool: persistent helpers, chunked distribution,
    deterministic merge.  See pool.mli for the contract. *)

let chunks ~n ~jobs =
  if n <= 0 then []
  else begin
    let jobs = max 1 jobs in
    (* About 4 chunks per worker: small enough that the atomic cursor
       rebalances around expensive items, large enough that claiming a
       chunk (one fetch-and-add) is noise. *)
    let size = max 1 (n / (jobs * 4)) in
    let rec go start acc =
      if start >= n then List.rev acc
      else
        let len = min size (n - start) in
        go (start + len) ((start, len) :: acc)
    in
    go 0 []
  end

(* The helper domains are spawned on demand and live as long as the
   process: between calls each parks on [wake], so whatever it keeps in
   [Domain.DLS] (plan and regex memos, the trace scratch buffer) stays
   warm from one call to the next.  [owner] admits one call at a time;
   only that call spawns, so [helpers] has one writer.  [lock] guards
   the open call's fields. *)
let owner = Atomic.make false
let helpers = ref 0
let lock = Mutex.create ()
let wake = Condition.create ()
let idle = Condition.create ()

(* The open call: its chunk-claiming closure ([None] once closed), its
   number (so a helper joins each call at most once), how many more
   helpers it admits, and how many are inside it. *)
let work : (unit -> unit) option ref = ref None
let call = ref 0
let seats = ref 0
let joined = ref 0

(* Runs with [lock] held.  Calls are numbered from 1, so a new helper
   starts at [last = 0]. *)
let rec park last =
  match !work with
  | Some w when !call <> last && !seats > 0 ->
      let id = !call in
      decr seats;
      incr joined;
      Mutex.unlock lock;
      (* [w] records [f]'s exceptions per item; anything else escaping
         leaves its slot empty, which the merge reports, and must not
         kill the helper while the caller counts on it. *)
      (try w () with _ -> ());
      Mutex.lock lock;
      decr joined;
      if !joined = 0 then Condition.signal idle;
      park id
  | _ ->
      Condition.wait wake lock;
      park last

let helper () =
  Mutex.lock lock;
  park 0

(* The runtime caps live domains (128 in OCaml 5.1), and helpers never
   exit: at the first refused spawn the call carries on with the
   helpers it has, since the cursor finishes the work with any number. *)
let rec grow wanted =
  if !helpers < wanted then
    match Domain.spawn helper with
    | (_ : unit Domain.t) ->
        incr helpers;
        grow wanted
    | exception Failure _ -> ()

(* Open the call to up to [n] helpers, work alongside them, then close
   it and wait only for the helpers that joined: one still waking up
   finds the call closed and parks again. *)
let run_call ~n w =
  Mutex.lock lock;
  incr call;
  work := Some w;
  seats := n;
  for _ = 1 to n do
    Condition.signal wake
  done;
  Mutex.unlock lock;
  Fun.protect w ~finally:(fun () ->
      Mutex.lock lock;
      work := None;
      while !joined > 0 do
        Condition.wait idle lock
      done;
      Mutex.unlock lock)

let map ~jobs ~f a =
  let n = Array.length a in
  (* A call made while another holds the pool — nested inside [f], or
     from a second domain — runs in the calling domain rather than wait
     for the busy helpers. *)
  if jobs <= 1 || n <= 1 || not (Atomic.compare_and_set owner false true)
  then Array.map f a
  else
    Fun.protect ~finally:(fun () -> Atomic.set owner false) @@ fun () ->
    let workers = min jobs n in
    grow (workers - 1);
    let cs = Array.of_list (chunks ~n ~jobs:workers) in
    let out = Array.make n None in
    let cursor = Atomic.make 0 in
    let rec claim () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < Array.length cs then begin
        let start, len = cs.(i) in
        for j = start to start + len - 1 do
          out.(j) <-
            Some
              (match f a.(j) with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        done;
        claim ()
      end
    in
    run_call ~n:(workers - 1) claim;
    (* Every slot was written by exactly one worker, and each joined
       helper's exit from the call, under [lock], orders its writes
       before these reads. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      out
