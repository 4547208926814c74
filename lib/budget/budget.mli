(** Grading budgets: a shared fuel pool with an optional CPU-time deadline.

    A single budget is threaded through every expensive stage of the
    grading pipeline — the backtracking embedding search
    ({!Jfeed_core.Matcher}), the method-pairing combination search
    ({!Jfeed_core.Grader}) and the interpreter's step loop
    ({!Jfeed_interp.Interp}) — so one submission can never consume more
    than a bounded amount of work, no matter which stage its pathology
    lives in.

    Exhaustion is never silent: each stage that asks for fuel after the
    pool is empty (or the deadline has passed) is recorded, and
    {!hits} reports them in first-hit order so callers can name the
    truncated stages in the degradation report
    ({!Jfeed_robust.Outcome}). *)

type stage =
  | Matcher  (** candidate-extension steps of the embedding search *)
  | Pairing  (** method combinations examined by Algorithm 2 *)
  | Interp  (** interpreter execution steps *)

type t

val unlimited : unit -> t
(** Never exhausts; still counts fuel spent. *)

val create : ?fuel:int -> ?deadline_s:float -> unit -> t
(** [create ~fuel ~deadline_s ()] exhausts after [fuel] units of work or
    after [deadline_s] seconds of CPU time ({!Sys.time}), whichever
    comes first.  Omitting either bound leaves that axis unlimited. *)

val spend : t -> stage -> int -> bool
(** [spend b stage n] burns [n] units; [false] when the budget is (or
    just became) exhausted, in which case [stage] is recorded as a hit.
    Callers must stop the work of [stage] when [spend] returns [false].
    The deadline is polled when the total spent reaches or crosses a
    multiple of 1024 units: once every 1024 single-unit spends, and at
    most once for a spend of more than one unit (a bulk spend that
    crosses no multiple does not poll). *)

val check : t -> stage -> bool
(** Like {!spend} with [n = 0]: test (and record) exhaustion without
    consuming fuel. *)

val split : int -> ways:int -> int list
(** [split total ~ways] divides a fuel allowance into [ways] pools that
    {e sum exactly to [total]} — the first [total mod ways] pools get
    the extra unit; no fuel is lost to integer division.  Raises
    [Invalid_argument] when [ways <= 0].

    {b Parallel fuel accounting.}  The batch driver
    ({!Jfeed_robust.Pipeline.run_batch}) gives every submission its own
    fresh budget of the requested [--fuel], so the pool available to a
    worker domain is (items it grades) × [--fuel] and the pools across
    domains always sum to the global allowance (submissions × [--fuel])
    — {e at any [--jobs] value}.  [--fuel N] therefore means exactly the
    same bound per submission whether the batch runs on 1 domain or 16;
    dividing one allowance among cooperating consumers goes through
    [split] so the remainder is distributed, never dropped.  The CPU
    {e deadline} axis is the exception: {!create}'s [deadline_s] reads
    the process-wide CPU clock ({!Sys.time}), which advances [jobs]
    times faster under parallel grading — deadline-bounded runs are
    reproducible only at a fixed [--jobs], so the byte-identical
    guarantee is stated for fuel-only budgets. *)

val spent : t -> int
(** Total fuel consumed so far, across all stages. *)

val spent_by : t -> (string * int) list
(** Fuel consumed per stage, keyed by {!string_of_stage}, every stage
    present in declaration order (zeros included) — the tracing layer's
    per-stage fuel breakdown.  Sums to {!spent}. *)

val remaining : t -> int option
(** Fuel left, [None] when the fuel axis is unlimited. *)

val headroom : t -> int
(** The units a caller may spend in bulk, in one {!spend} or several,
    before a spend could fail or poll the deadline: the fuel left, and
    with a deadline one less than the units up to the next multiple of
    1024; 0 once exhausted, [max_int] on an unlimited budget.  A caller
    that counts its work and spends it in bulk within this headroom,
    then spends the next unit on its own, sees exactly the failures
    and deadline polls of one spend per unit (the interpreter's steps,
    {!Jfeed_interp.Interp}). *)

val exhausted : t -> bool

val hits : t -> stage list
(** Stages that requested fuel after exhaustion, deduplicated, in
    first-hit order. *)

val string_of_stage : stage -> string
(** ["matcher"], ["pairing"], ["interp"]. *)
