(** Durable result store: an append-only, checksummed record log.

    The disk half of the content-addressed result cache.  Each
    [append] writes one self-delimiting record

    {v
    | length : 4 bytes BE | md5(payload) : 16 bytes | payload |
    payload := | key length : 4 bytes BE | key | value |
    v}

    flushed to the kernel with a single [write(2)], so an entry
    survives a [kill -9] the moment {!append} returns (surviving power
    loss additionally needs {!sync}, which the daemon issues on
    graceful shutdown and after compaction).

    {b Recovery.}  {!open_dir} replays the log from the start and stops
    at the first record that does not check out — a short header, a
    length field beyond the file, or a checksum mismatch.  Everything
    before that point is replayed through the callback; everything from
    it on (the {e torn tail} a crash mid-append leaves behind) is
    discarded and the file is truncated to the valid prefix, so the
    next append never interleaves with garbage.  A boot can therefore
    lose at most the single record being written when the process
    died — never the prefix.

    {b Compaction.}  Deleting or re-adding a key only appends, so the
    log accumulates dead records.  {!compact} rewrites the supplied
    live entries into a temporary file in the same directory, fsyncs
    it, and [rename(2)]s it over the log — atomic on POSIX, so a crash
    during compaction leaves either the old log or the complete new
    one, never a hybrid.

    Single-writer: the log is protected by an advisory [lockf] lock;
    opening a directory another live daemon owns raises [Failure]. *)

type t

type recovery = {
  recovered : int;  (** valid records replayed at boot *)
  dropped_bytes : int;  (** torn-tail bytes truncated at boot *)
}

val file_name : string
(** ["cache.jfl"], the log's name inside the cache directory. *)

val open_dir : string -> f:(key:string -> value:string -> unit) -> t * recovery
(** [open_dir dir ~f] creates [dir] if missing, locks and replays
    [dir/cache.jfl] (calling [f] once per valid record, in append
    order), truncates any torn tail, and leaves the log open for
    {!append}.  Raises [Failure] if another process holds the lock. *)

val append : t -> key:string -> value:string -> unit
(** One checksummed record, written with a single [write(2)]. *)

val appended : t -> int
(** Records appended since {!open_dir} (compaction rewrites do not
    count). *)

val compactions : t -> int
val recovery : t -> recovery
(** The boot-time replay outcome, for the metrics surface. *)

val compact : t -> (string * string) list -> unit
(** Atomically replace the log with exactly the given entries (written
    in list order, so the reload order — and hence reload recency — is
    the caller's). *)

val close : t -> unit
(** [sync] then close; the lock dies with the descriptor. *)
