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

(* The helper domains are spawned on demand and park between calls, so
   whatever each keeps in [Domain.DLS] (plan and regex memos, the trace
   scratch buffer) stays warm from one call to the next.  A parked
   helper is not free: its backup thread takes part in every
   stop-the-world minor collection of the process.  So a helper retires
   (its domain returns) once the process has run [retire_after] minor
   collections since the pool's last call.  An idle process runs none,
   so its helpers stay.  [owner] admits one call at a time; only that
   call spawns.  [lock] guards [live], the helper count, and the open
   call's fields. *)
let owner = Atomic.make false
let live = ref 0
let lock = Mutex.create ()
let idle = Condition.create ()

(* The open call: its chunk-claiming closure ([None] once closed), its
   number (so a helper joins each call at most once), how many more
   helpers it admits, and how many are inside it. *)
let work : (unit -> unit) option ref = ref None
let call = ref 0
let seats = ref 0
let joined = ref 0

(* On a 2-vCPU VM, a [~jobs:2] call over a fresh-static pair took 7.7 ms
   of CPU with a freshly spawned helper and 5.6 ms with a warm one, and
   a parked helper added 25-90 us to each minor collection, or 140-190
   us beside one CPU-bound process.  So respawning costs about as much
   as 16 collections under load, and more than that only on an idle
   machine. *)
let retire_after = 16

let collections () = (Gc.quick_stat ()).Gc.minor_collections

(* A call wakes parked helpers with one ticket per seat a live helper
   can take.  A parked helper waits for a ticket, or for its poll
   interval to pass so that it can count collections; the interval
   doubles while none happen, so a helper of an idle process wakes
   about once a second.  park_stubs.c says why this is not a pipe. *)
external wait : float -> unit = "jfeed_park_wait"
external wake : int -> unit = "jfeed_park_wake"

let poll_min = 0.005
let poll_max = 1.0

(* A parked helper's watch on the process: the call count and the
   collection count at its last look, the collection count when a look
   last found a new call, and its next wait. *)
type watch = {
  mutable calls : int;
  mutable seen : int;
  mutable since : int;
  mutable poll : float;
}

(* Called between calls, without [lock]; [true] when the helper should
   retire. *)
let look t calls =
  let gcs = collections () in
  if calls <> t.calls then begin
    t.calls <- calls;
    t.since <- gcs;
    t.poll <- poll_min
  end
  else if gcs = t.seen then t.poll <- Float.min poll_max (2. *. t.poll)
  else t.poll <- poll_min;
  t.seen <- gcs;
  gcs - t.since >= retire_after

(* Runs with [lock] held; returns, with it released, when the helper
   retires.  Calls are numbered from 1, so a new helper starts at
   [last = 0]. *)
let rec park t ~last =
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
      park t ~last:id
  | _ ->
      let calls = !call in
      Mutex.unlock lock;
      if look t calls then begin
        Mutex.lock lock;
        decr live;
        Mutex.unlock lock
      end
      else begin
        wait t.poll;
        Mutex.lock lock;
        park t ~last
      end

let helper () =
  let gcs = collections () in
  Mutex.lock lock;
  park { calls = !call; seen = gcs; since = gcs; poll = poll_min } ~last:0

(* The runtime caps live domains (128 in OCaml 5.1): at the first
   refused spawn the call carries on with the helpers it has, since the
   cursor finishes the work with any number. *)
let rec grow wanted =
  Mutex.lock lock;
  let have = !live in
  if have < wanted then incr live;
  Mutex.unlock lock;
  if have < wanted then
    match Domain.spawn helper with
    | (_ : unit Domain.t) -> grow wanted
    | exception Failure _ ->
        Mutex.lock lock;
        decr live;
        Mutex.unlock lock

let helpers () =
  Mutex.lock lock;
  let n = !live in
  Mutex.unlock lock;
  n

(* Open the call to up to [n] helpers, work alongside them, then close
   it and wait only for the helpers that joined: one still waking up
   finds the call closed and parks again. *)
let run_call ~n w =
  Mutex.lock lock;
  incr call;
  work := Some w;
  seats := n;
  (* A ticket per helper that can take a seat, so tickets left over by
     a call that closed early stay few. *)
  wake (min n !live);
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
