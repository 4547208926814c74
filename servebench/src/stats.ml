(** Order statistics over latency samples.

    Percentiles are nearest-rank: the p-th percentile of n samples is
    the sample of rank ⌈p·n/100⌉ in ascending order, so every reported
    value is one that was actually observed.  A failed request is a
    sample of [infinity]: it misses every latency limit. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let rank ~n p = max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.0)))

(** [percentile p xs] — nearest-rank; [xs] need not be sorted.  Raises
    [Invalid_argument] on an empty array. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted xs).(rank ~n p - 1)

(** Samples strictly above the rank of the p-th percentile. *)
let beyond ~n p = n - rank ~n p

(** The p99 the benchmark reports, or [Error] when fewer than ten
    samples lie beyond it (the percentile would rest on a handful of
    requests). *)
let p99 xs =
  let n = Array.length xs in
  let b = if n = 0 then 0 else beyond ~n 99.0 in
  if b < 10 then
    Error
      (Printf.sprintf "p99 needs at least 10 samples beyond it; %d samples give %d" n b)
  else Ok (percentile 99.0 xs)

let median xs = percentile 50.0 xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n
