(** Bounded LRU map: the store under the content-addressed result cache.

    Pure data structure — hit/miss accounting lives in {!Metrics}, where
    the server can also credit hits served from in-flight batch results
    that are not yet in the store.  All operations are O(1): a hash
    table over an intrusive doubly-linked recency list.

    Not thread-safe; the server touches it only from the request loop
    (grading work is what runs on the pool, never cache mutation). *)

type 'v t

val create : cap:int -> 'v t
(** [cap <= 0] builds a disabled cache: {!add} is a no-op and {!find}
    always misses — [--cache-cap 0] turns caching off without a second
    code path. *)

val size : 'v t -> int

val find : 'v t -> string -> 'v option
(** Lookup; a hit becomes most-recently-used. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or replace as most-recently-used, then evict
    least-recently-used entries until [size <= cap]. *)

val mem : 'v t -> string -> bool
(** Membership without touching recency. *)

val fold_lru : (string -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
(** Fold in recency order, least-recently-used first, without touching
    recency — replaying the result through {!add} calls in fold order
    reconstructs the same recency list (the durable store's compaction
    writes entries in this order so a reload preserves eviction
    priority). *)
