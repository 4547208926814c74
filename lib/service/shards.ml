(** Sharded mutex-guarded LRU.  See shards.mli. *)

type 'v t = {
  caches : 'v Cache.t array;
  locks : Mutex.t array;
  hits : int array;
  misses : int array;
}

let create ~shards ~cap =
  let n = max 1 shards in
  let cap = max 0 cap in
  (* split like Budget.split: shares sum exactly to [cap] *)
  let share i = (cap / n) + if i < cap mod n then 1 else 0 in
  {
    caches = Array.init n (fun i -> Cache.create ~cap:(share i));
    locks = Array.init n (fun _ -> Mutex.create ());
    hits = Array.make n 0;
    misses = Array.make n 0;
  }

let shard_of_key t key =
  (* Hashtbl.hash is deterministic over string bytes (seeded MurmurHash),
     so the key → shard map is stable across runs and processes. *)
  Hashtbl.hash key mod Array.length t.caches

let locked t i f =
  Mutex.lock t.locks.(i);
  Fun.protect ~finally:(fun () -> Mutex.unlock t.locks.(i)) f

let find t key =
  let i = shard_of_key t key in
  locked t i @@ fun () ->
  match Cache.find t.caches.(i) key with
  | Some _ as hit ->
      t.hits.(i) <- t.hits.(i) + 1;
      hit
  | None ->
      t.misses.(i) <- t.misses.(i) + 1;
      None

let add t key v =
  let i = shard_of_key t key in
  locked t i @@ fun () -> Cache.add t.caches.(i) key v

let size t =
  Array.to_seq t.caches |> Seq.map Cache.size |> Seq.fold_left ( + ) 0

let counters t =
  Array.init (Array.length t.caches) (fun i -> (t.hits.(i), t.misses.(i)))

let fold_lru f t init =
  let acc = ref init in
  Array.iteri
    (fun i c -> acc := locked t i (fun () -> Cache.fold_lru f c !acc))
    t.caches;
  !acc
