(* Bounded LRU cache: hashtable + intrusive doubly-linked recency list.
   Generalises the eviction discipline of the per-site code cache: entries
   carry a weight (default 1, i.e. a plain entry count bound), the total
   weight is kept at or below [budget], and inserts push out the least
   recently used entries.  O(1) per operation, no scans. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable w : int;
  mutable prev : ('k, 'v) node option; (* towards most recent *)
  mutable next : ('k, 'v) node option; (* towards least recent *)
}

type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  budget : int;
  weight : 'v -> int;
  on_evict : 'k -> 'v -> unit;
  mutable head : ('k, 'v) node option; (* most recent *)
  mutable tail : ('k, 'v) node option; (* least recent *)
  mutable used : int;
  mutable evictions : int;
}

let create ?(on_evict = fun _ _ -> ()) ?(weight = fun _ -> 1) ~budget () =
  if budget <= 0 then invalid_arg "Lru.create: budget must be positive";
  {
    tbl = Hashtbl.create 64;
    budget;
    weight;
    on_evict;
    head = None;
    tail = None;
    used = 0;
    evictions = 0;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match n.prev with
  | None -> () (* already most recent *)
  | Some _ ->
    unlink t n;
    push_front t n

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.tbl n.key;
    t.used <- t.used - n.w;
    t.evictions <- t.evictions + 1;
    t.on_evict n.key n.value

let find_opt t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
    touch t n;
    Some n.value

let mem t k = Hashtbl.mem t.tbl k

let add t k v =
  let w = t.weight v in
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
    t.used <- t.used - n.w + w;
    n.value <- v;
    n.w <- w;
    touch t n;
    (* replacing with a heavier value may push the total over budget *)
    while t.used > t.budget && t.tail != Some n do
      evict_lru t
    done;
    true
  | None ->
    if w > t.budget then false
    else begin
      while t.used + w > t.budget do
        evict_lru t
      done;
      let n = { key = k; value = v; w; prev = None; next = None } in
      push_front t n;
      Hashtbl.replace t.tbl k n;
      t.used <- t.used + w;
      true
    end

let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.tbl k;
    t.used <- t.used - n.w

let length t = Hashtbl.length t.tbl
let used t = t.used
let budget t = t.budget
let evictions t = t.evictions

let keys t =
  (* most recent first *)
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head

let fold f t init =
  let rec go acc = function
    | None -> acc
    | Some n -> go (f n.key n.value acc) n.next
  in
  go init t.head
