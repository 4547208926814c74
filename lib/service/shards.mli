(** Sharded result cache: N independent {!Cache} LRUs behind per-shard
    mutexes.

    Keys route to a shard by a deterministic hash of the key bytes, so
    which shard holds an entry is a pure function of the key — the
    cache key already encodes everything that determines the grade
    (α-rename digest, KB revision, budgets), which makes sharding
    {e semantics-free}: a lookup returns the same entry whatever the
    shard count, and the qcheck suite holds the structure to that.

    The global capacity is divided across shards the way
    {!Jfeed_budget.Budget.split} divides fuel — the first [cap mod n]
    shards get the extra entry, nothing is lost to integer division —
    so eviction pressure (though not the exact victim sequence) is
    preserved at any shard count.

    Locking: one mutex per shard, held only for the O(1) LRU
    operation — never while grading.  In the daemon every cache access
    already runs under the serving loop's one lock, so the shard
    mutexes guard nothing there; they keep the structure safe for a
    caller without such a lock, at a cost that is noise next to a
    grading request. *)

type 'v t

val create : shards:int -> cap:int -> 'v t
(** [shards] is clamped to at least 1; [cap <= 0] builds a disabled
    cache, like {!Cache.create}. *)

val size : 'v t -> int
(** Total entries across shards. *)

val find : 'v t -> string -> 'v option
(** Lookup under the key's shard lock; a hit becomes most recently used
    within its shard and is counted in that shard's hit column. *)

val add : 'v t -> string -> 'v -> unit
(** Insert/replace under the key's shard lock, evicting that shard's
    LRU tail past its capacity share.  Pure memory operation —
    durability is layered on by the caller ({!Store.append} on fresh
    misses), so boot-time replay can reuse [add] without re-appending. *)

val counters : 'v t -> (int * int) array
(** Per-shard (hits, misses) over {!find} calls, index = shard id. *)

val fold_lru : (string -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
(** Fold every live entry, shard by shard, each shard least-recently
    used first — the order compaction writes, so a reload rebuilds
    comparable recency. *)
