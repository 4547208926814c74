(** The throughput layer: the Domain worker pool, the fuel-split
    arithmetic, and the headline guarantee — parallel batch grading is
    byte-identical to sequential on the fault-injection corpus. *)

open Jfeed_kb
open Jfeed_robust
module Pool = Jfeed_parallel.Pool
module Budget = Jfeed_budget.Budget

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool.chunks: a deterministic, exact decomposition *)

let prop_chunks_partition =
  QCheck.Test.make ~count:300 ~name:"chunks partition 0..n-1 in order"
    QCheck.(pair (int_bound 500) (int_bound 32))
    (fun (n, jobs) ->
      let cs = Pool.chunks ~n ~jobs:(jobs + 1) in
      let covered =
        List.concat_map (fun (s, l) -> List.init l (fun i -> s + i)) cs
      in
      covered = List.init n Fun.id && List.for_all (fun (_, l) -> l > 0) cs)

let test_chunks_empty () =
  Alcotest.(check (list (pair int int))) "no items, no chunks" []
    (Pool.chunks ~n:0 ~jobs:4)

(* ------------------------------------------------------------------ *)
(* Pool.map: sequential semantics at any width *)

let prop_map_equals_array_map =
  QCheck.Test.make ~count:200 ~name:"Pool.map = Array.map at any jobs"
    QCheck.(pair (list small_int) (int_bound 7))
    (fun (xs, jobs) ->
      let a = Array.of_list xs in
      let f x = (x * 37) + (x mod 5) in
      Pool.map ~jobs:(jobs + 1) ~f a = Array.map f a)

(* A two-party rendezvous with a timeout: the first caller waits until
   a second one arrives, so two items that both call it run on two
   domains at once.  [false] iff the partner never came. *)
let rendezvous arrived =
  Atomic.incr arrived;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    Atomic.get arrived >= 2
    || Unix.gettimeofday () < deadline
       && begin
            Unix.sleepf 1e-4;
            wait ()
          end
  in
  wait ()

(* [Pool.map ~jobs:2] over two items that run [g] and then meet. *)
let met_on_two_domains g =
  let arrived = Atomic.make 0 in
  let f () =
    g ();
    rendezvous arrived
  in
  Pool.map ~jobs:2 ~f [| (); () |] = [| true; true |]

let test_map_exception_first_index () =
  (* The first failing *index* is re-raised, not the first to finish. *)
  let a = Array.init 40 Fun.id in
  let f x = if x mod 7 = 3 then failwith (string_of_int x) else x in
  (match Pool.map ~jobs:4 ~f a with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> Alcotest.(check string) "index order" "3" msg);
  check "the helpers survive it" true (met_on_two_domains ignore)

let test_map_helpers_persist () =
  (* A spawn-per-call pool would initialise this key on a fresh domain
     in every call, about 50 times.  Persistent helpers initialise it
     once each: the caller plus at most the helpers this process has
     grown (the widest call in this suite asks for 4 domains). *)
  let inits = Atomic.make 0 in
  let key = Domain.DLS.new_key (fun () -> Atomic.incr inits) in
  for _ = 1 to 50 do
    check "both items ran at once" true
      (met_on_two_domains (fun () -> Domain.DLS.get key))
  done;
  check "one initialisation per domain" true (Atomic.get inits <= 8)

let test_map_reentrant () =
  let a = Array.init 20 Fun.id in
  let g x =
    Array.fold_left ( + ) 0
      (Pool.map ~jobs:2 ~f:(fun y -> y * 3) (Array.init (x mod 5) (( + ) x)))
  in
  check "nested map = Array.map" true (Pool.map ~jobs:2 ~f:g a = Array.map g a);
  (* Item 0 of each call waits for item 0 of the other: a call that
     queued behind the busy pool would leave its partner to time out. *)
  let arrived = Atomic.make 0 in
  let met = Atomic.make 0 in
  let f x =
    if x = 0 && rendezvous arrived then Atomic.incr met;
    x * x
  in
  let a = Array.init 8 Fun.id in
  let other = Domain.spawn (fun () -> Pool.map ~jobs:2 ~f a) in
  let mine = Pool.map ~jobs:2 ~f a in
  let theirs = Domain.join other in
  let expect = Array.map (fun x -> x * x) a in
  check "both calls = Array.map" true (mine = expect && theirs = expect);
  Alcotest.(check int) "the two calls overlapped" 2 (Atomic.get met)

(* Run minor collections until every helper has retired. *)
let retire_all () =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Pool.helpers () > 0 && Unix.gettimeofday () < deadline do
    Gc.minor ();
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) "every helper retired" 0 (Pool.helpers ())

let test_map_idle_helpers_retire () =
  (* A parked helper takes part in every minor collection, so once the
     process has run enough of them without a call, every helper
     retires, and the next call grows a new one.  Collections between
     the calls of a pool in use, 80 over 40 calls, retire none: one
     helper serves every call. *)
  retire_all ();
  let inits = Atomic.make 0 in
  let key = Domain.DLS.new_key (fun () -> Atomic.incr inits) in
  for _ = 1 to 40 do
    check "a pair meets on two domains" true
      (met_on_two_domains (fun () -> Domain.DLS.get key));
    Gc.minor ();
    Gc.minor ()
  done;
  Alcotest.(check int) "the caller and one helper" 2 (Atomic.get inits);
  retire_all ();
  check "the next pair meets on two domains" true (met_on_two_domains ignore);
  Alcotest.(check int) "it grew one helper" 1 (Pool.helpers ())

(* ------------------------------------------------------------------ *)
(* Budget.split: nothing lost to integer division *)

let prop_split_sum_preserving =
  QCheck.Test.make ~count:300 ~name:"Budget.split pools sum to the total"
    QCheck.(pair (int_bound 1_000_000) (int_bound 63))
    (fun (total, ways) ->
      let ways = ways + 1 in
      let pools = Budget.split total ~ways in
      List.length pools = ways
      && List.fold_left ( + ) 0 pools = total
      && (* even: largest and smallest pool differ by at most one unit *)
      List.for_all
        (fun p -> abs (p - (total / ways)) <= 1)
        pools)

let test_split_rejects_zero_ways () =
  Alcotest.check_raises "ways must be positive"
    (Invalid_argument "Budget.split: ways must be positive") (fun () ->
      ignore (Budget.split 100 ~ways:0))

(* ------------------------------------------------------------------ *)
(* Determinism: run_batch ~jobs:4 ≡ ~jobs:1, byte for byte, on the
   fault-injection corpus (clean generated submissions plus mutants of
   every class — parse garbage, deep nesting, giant expressions — under
   a finite fuel budget, functional tests included). *)

let corpus_bundle = Bundles.esc_p2v2

let corpus =
  let spec = corpus_bundle.Bundles.gen in
  let size = Jfeed_gen.Spec.size spec in
  List.init 60 (fun i ->
      let idx = (i * 48271) mod size in
      let src = Jfeed_gen.Spec.source_of_index spec idx in
      let src =
        (* Two in three submissions are mutated, the rest stay clean, so
           the batch crosses every outcome class. *)
        if i mod 3 = 0 then src
        else Test_robust.mutate (Test_robust.lcg ((i * 104729) + idx)) src
      in
      (Printf.sprintf "m%03d.java" i, Ok src))

let test_parallel_batch_byte_identical () =
  let run jobs =
    Pipeline.summary_to_json
      (Pipeline.run_batch ~fuel:50_000 ~jobs corpus_bundle corpus)
  in
  let seq = run 1 in
  Alcotest.(check string) "jobs:4 equals jobs:1" seq (run 4);
  Alcotest.(check string) "jobs:3 equals jobs:1" seq (run 3);
  (* The corpus really exercises the ladder: all three classes appear. *)
  let s = Pipeline.run_batch ~fuel:50_000 ~jobs:4 corpus_bundle corpus in
  check "some graded" true (s.Pipeline.graded > 0);
  check "some rejected" true (s.Pipeline.rejected > 0)

let test_parallel_more_jobs_than_items () =
  let tiny = [ List.hd corpus ] in
  let run jobs =
    Pipeline.summary_to_json
      (Pipeline.run_batch ~fuel:50_000 ~jobs corpus_bundle tiny)
  in
  Alcotest.(check string) "jobs:8 on one item" (run 1) (run 8)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_chunks_partition;
    Alcotest.test_case "chunks: empty input" `Quick test_chunks_empty;
    QCheck_alcotest.to_alcotest prop_map_equals_array_map;
    Alcotest.test_case "map: exception in index order" `Quick
      test_map_exception_first_index;
    Alcotest.test_case "map: helpers keep their domain state" `Quick
      test_map_helpers_persist;
    Alcotest.test_case "map: nested and concurrent calls" `Quick
      test_map_reentrant;
    QCheck_alcotest.to_alcotest prop_split_sum_preserving;
    Alcotest.test_case "split: zero ways rejected" `Quick
      test_split_rejects_zero_ways;
    Alcotest.test_case "batch determinism on the fault corpus" `Slow
      test_parallel_batch_byte_identical;
    Alcotest.test_case "more jobs than items" `Quick
      test_parallel_more_jobs_than_items;
    Alcotest.test_case "map: idle helpers retire" `Quick
      test_map_idle_helpers_retire;
  ]
