(** Monotonic wall clock and process CPU clock, in nanoseconds. *)

external now_ns : unit -> (int64[@unboxed])
  = "servebench_now_ns_byte" "servebench_now_ns_unboxed"
[@@noalloc]

external cpu_ns : unit -> (int64[@unboxed])
  = "servebench_cpu_ns_byte" "servebench_cpu_ns_unboxed"
[@@noalloc]

let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6
let s_between a b = Int64.to_float (Int64.sub b a) /. 1e9
