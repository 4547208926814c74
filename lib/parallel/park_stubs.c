/* Timed parking for the pool's helper domains.
 *
 * OCaml 5.1's Condition has no timed wait.  A pipe gives one through
 * select, but in 800-call runs of paired grading a helper woken
 * through a pipe came too late for 2-5% of the calls, against under 1%
 * woken through a condition variable.  A pipe write wakes its reader
 * with a "sync" hint, which lets Linux queue the helper on the busy
 * caller's CPU; a futex wake carries no such hint.  Wake-ups are
 * counted as tickets, so one given before its helper blocks is not
 * lost. */

#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <pthread.h>
#include <time.h>

/* Waits run on the monotonic clock where the condition variable can be
   told so; macOS has no pthread_condattr_setclock. */
#ifdef __APPLE__
#define PARK_CLOCK CLOCK_REALTIME
#else
#define PARK_CLOCK CLOCK_MONOTONIC
#endif

static pthread_mutex_t park_mutex = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t park_cond;
static pthread_once_t park_once = PTHREAD_ONCE_INIT;
static long park_tickets = 0;

static void park_init(void)
{
  pthread_condattr_t attr;
  pthread_condattr_init(&attr);
#ifndef __APPLE__
  pthread_condattr_setclock(&attr, PARK_CLOCK);
#endif
  pthread_cond_init(&park_cond, &attr);
  pthread_condattr_destroy(&attr);
}

/* Take a ticket, waiting up to [timeout_s] seconds for one. */
CAMLprim value jfeed_park_wait(value timeout_s)
{
  double t = Double_val(timeout_s);
  struct timespec until;
  int rc = 0;
  pthread_once(&park_once, park_init);
  clock_gettime(PARK_CLOCK, &until);
  until.tv_sec += (time_t)t;
  until.tv_nsec += (long)((t - (double)(time_t)t) * 1e9);
  if (until.tv_nsec >= 1000000000L) {
    until.tv_sec += 1;
    until.tv_nsec -= 1000000000L;
  }
  caml_enter_blocking_section();
  pthread_mutex_lock(&park_mutex);
  /* 0 is a wake-up, possibly spurious; anything else, ETIMEDOUT as a
     rule, ends the wait. */
  while (park_tickets == 0 && rc == 0)
    rc = pthread_cond_timedwait(&park_cond, &park_mutex, &until);
  if (park_tickets > 0)
    park_tickets--;
  pthread_mutex_unlock(&park_mutex);
  caml_leave_blocking_section();
  return Val_unit;
}

/* Leave [n] tickets and wake up to [n] waiters. */
CAMLprim value jfeed_park_wake(value n)
{
  long k = Long_val(n);
  pthread_once(&park_once, park_init);
  pthread_mutex_lock(&park_mutex);
  park_tickets += k;
  for (long i = 0; i < k; i++)
    pthread_cond_signal(&park_cond);
  pthread_mutex_unlock(&park_mutex);
  return Val_unit;
}
