(** [Pool.map] past the runtime's domain limit.  A process of its own:
    the helpers grown here stay parked until the process has run 16
    minor collections, and every parked helper takes part in each
    stop-the-world minor GC. *)

module Pool = Jfeed_parallel.Pool

let test_beyond_domain_limit () =
  (* OCaml 5.1 refuses the 128th live domain.  Every item sleeps, so
     the call asks for all 200 workers at once. *)
  let a = Array.init 200 Fun.id in
  let f x =
    Unix.sleepf 0.05;
    x * 3
  in
  Alcotest.(check (array int))
    "jobs:200 = Array.map" (Array.map (fun x -> x * 3) a)
    (Pool.map ~jobs:200 ~f a);
  Alcotest.(check (array int))
    "a following jobs:2 call" [| 2; 4 |]
    (Pool.map ~jobs:2 ~f:(fun x -> 2 * x) [| 1; 2 |])

let () =
  Alcotest.run "pool-limit"
    [
      ( "pool",
        [
          Alcotest.test_case "map beyond the domain limit" `Quick
            test_beyond_domain_limit;
        ] );
    ]
