(** Durable request-lifecycle event log.

    One JSON object per line, one line per lifecycle event.  Each line
    is self-checksummed — the final field is [,"ck":"<hex8>"}], the
    first 8 hex characters of the MD5 of everything before it — so
    replay after a crash can accept the longest valid prefix and treat
    the first torn or corrupted line as the end of the log, the same
    valid-prefix discipline the durable result cache uses for its
    binary records.

    Events are buffered in a bounded in-memory ring and written by a
    single flusher (the server's event-loop turn); when the ring is
    full further events are counted as dropped rather than blocking
    the hot path.  The current file [events.jsonl] rotates to
    [events.jsonl.1] when it exceeds the size budget; one rotated
    generation is kept. *)

type value =
  | I of int
  | F of float  (** rendered with 4 decimal places *)
  | S of string  (** JSON-escaped *)
  | R of string  (** spliced verbatim — must already be valid JSON *)

type t

val create : ?ring_cap:int -> ?rotate_bytes:int -> string -> t
(** [create dir] opens (creating if needed) [dir/events.jsonl] for
    append.  [ring_cap] bounds the in-memory ring (default 4096
    lines); [rotate_bytes] bounds the file size before rotation
    (default 8 MiB, floor 4 KiB).  Raises [Failure] if [dir] exists
    and is not a directory. *)

val emit : t -> rid:string -> ev:string -> (string * value) list -> unit
(** Render and enqueue one event line stamped with the monotonic
    clock.  Constant-time when the ring is full: the event is counted
    in [dropped] and discarded. *)

val flush : t -> unit
(** Drain the ring to disk and flush the channel.  Must be called from
    a single thread (the event-loop turn).  Rotates afterwards if the
    file exceeded its size budget. *)

val close : t -> unit
(** [flush] then close the file.  Further [emit]s are discarded. *)

val pending : t -> int
(** Lines waiting in the ring. *)

val emitted : t -> int
(** Lines accepted into the ring since [create]. *)

val dropped : t -> int
(** Lines discarded because the ring was full. *)

val rotations : t -> int
(** Completed file rotations since [create]. *)

val checksum_ok : string -> bool
(** Whether a line's trailing [,"ck":"…"}] verifies against its body. *)

val replay_file : string -> f:(string -> unit) -> int * int
(** [replay_file path ~f] calls [f] on each valid line in order and
    stops at the first torn (unterminated) or checksum-failing line.
    Returns [(valid_lines, torn_tail_bytes)].  A missing file replays
    as [(0, 0)]. *)

val replay_dir : string -> f:(string -> unit) -> int * int
(** Replay the rotated generation then the current file.  Returns the
    summed [(valid_lines, torn_tail_bytes)]. *)

val current_path : string -> string
(** [current_path dir] is [dir/events.jsonl]. *)

val rotated_path : string -> string
(** [rotated_path dir] is [dir/events.jsonl.1]. *)
