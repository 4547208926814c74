(** Domain-based worker pool for batch grading (OCaml 5 multicore).

    The pool maps a function over an array on [jobs] domains with
    {e chunked} work distribution — workers claim contiguous index
    ranges from a shared atomic cursor, so load balances even when item
    costs are wildly uneven (one pathological submission does not stall
    a whole static partition) — and a {e deterministic merge}: result
    [i] always lands in slot [i], so the output is byte-identical to the
    sequential run whatever the scheduling.

    The helper domains are {e persistent} while the pool is in use:
    spawned the first time a call needs them, parked between calls,
    never joined.  Their [Domain.DLS] state — the plan memo in
    [Jfeed_core.Plan], the regex memo in [Jfeed_exprmatch.Template],
    [Jfeed_trace.Trace.scratch] — therefore survives from call to call.
    A parked helper retires once the process has run 16 minor
    collections since the pool's last call (see {!map}); the next call
    that needs it spawns a fresh one.

    The mapped function must not touch shared mutable state; everything
    in the grading pipeline satisfies this (per-submission budgets,
    domain-local memos, per-call embedding caches in
    [Jfeed_core.Grader]). *)

val chunks : n:int -> jobs:int -> (int * int) list
(** [chunks ~n ~jobs] — the (start, length) work units used to
    distribute [n] items over [jobs] workers: contiguous, disjoint,
    covering [0..n-1] in order, each about a quarter of an even
    per-worker share (so the atomic cursor can rebalance).  A pure
    function of [(n, jobs)]: the decomposition never depends on timing.
    Empty iff [n = 0]. *)

val map : jobs:int -> f:('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs ~f a] = [Array.map f a], computed by the calling domain
    working alongside up to [min jobs (length a) - 1] pool helpers
    ([jobs <= 1] runs in the calling domain alone).  Slots are filled by
    index, so the result — and any output derived from it — is
    identical at every [jobs] value.  If [f] raises, the first exception
    in {e index} order (not completion order) is re-raised once every
    helper that joined the call has left it; the helpers stay usable.

    - The caller never waits for a helper that has not woken up: it
      drains the cursor itself, closes the call, and waits only for the
      helpers that joined.  A helper runs each call at most once.
    - A [map] issued while another is running — nested inside [f], or
      from a second domain — does not wait for the busy pool: it runs
      in the calling domain as [Array.map].
    - The runtime caps live domains (128 in OCaml 5.1).  When a spawn is
      refused, the pool stops growing and the call finishes on the
      helpers it has, so any [jobs >= 1] is accepted.
    - Parked helpers do not keep the process alive at exit, but each
      one's backup thread takes part in every stop-the-world minor
      collection of the process, which costs roughly 0.03–0.2 ms per
      minor GC per parked helper.  So a helper retires once the
      process has run 16 minor collections since the pool's last call:
      a process that has gone back to sequential work stops paying
      within about 5 ms of the 16th, and an idle one, which runs no
      collections, keeps its helpers.  A parked helper reads
      the count each time its wait times out: every 5 ms at first,
      backing off to once a second while no collection happens.
    - Once a helper exists, the runtime refuses [Unix.fork] for the
      rest of the process, even after the helper retires
      ([Unix.create_process] still works). *)

val helpers : unit -> int
(** The number of live helper domains, parked or inside a call. *)
