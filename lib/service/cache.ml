(** Bounded LRU map.  See cache.mli. *)

(* Intrusive doubly-linked recency list over hash-table nodes; [head] is
   most recent, [tail] least.  Option-threaded links keep the code free
   of sentinel tricks at the cost of a few allocations per touch —
   irrelevant next to a grading request. *)
type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (* towards head *)
  mutable next : 'v node option;  (* towards tail *)
}

type 'v t = {
  tbl : (string, 'v node) Hashtbl.t;
  capacity : int;
  mutable head : 'v node option;
  mutable tail : 'v node option;
}

let create ~cap =
  { tbl = Hashtbl.create (max 16 (min cap 4096)); capacity = cap;
    head = None; tail = None }

let size t = Hashtbl.length t.tbl

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value

let mem t k = Hashtbl.mem t.tbl k

let evict_over_cap t =
  while Hashtbl.length t.tbl > t.capacity do
    match t.tail with
    | None -> assert false (* size > cap >= 0 implies a tail entry *)
    | Some lru ->
        unlink t lru;
        Hashtbl.remove t.tbl lru.key
  done

let fold_lru f t init =
  let rec go acc = function
    | None -> acc
    | Some n -> go (f n.key n.value acc) n.prev
  in
  go init t.tail

let add t k v =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.tbl k with
    | Some n ->
        n.value <- v;
        unlink t n;
        push_front t n
    | None ->
        let n = { key = k; value = v; prev = None; next = None } in
        Hashtbl.add t.tbl k n;
        push_front t n);
    evict_over_cap t
  end
