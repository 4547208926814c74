/* Clocks for the serving benchmark, kept in the benchmark's own package
 * so that its timings do not depend on the program's instrumentation.
 *
 * now_ns: CLOCK_MONOTONIC, for latencies and span boundaries.
 * cpu_ns: CLOCK_PROCESS_CPUTIME_ID, user+sys CPU of every thread of
 * this process (so it also counts the worker domains of a pool). */

#include <caml/alloc.h>
#include <caml/mlvalues.h>
#include <stdint.h>
#include <time.h>

static int64_t read_clock(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

int64_t servebench_now_ns_unboxed(void) { return read_clock(CLOCK_MONOTONIC); }

CAMLprim value servebench_now_ns_byte(value unit)
{
  (void)unit;
  return caml_copy_int64(servebench_now_ns_unboxed());
}

int64_t servebench_cpu_ns_unboxed(void)
{
  return read_clock(CLOCK_PROCESS_CPUTIME_ID);
}

CAMLprim value servebench_cpu_ns_byte(value unit)
{
  (void)unit;
  return caml_copy_int64(servebench_cpu_ns_unboxed());
}
