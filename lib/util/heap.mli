(** Array-backed binary min-heap, the spine of the simulator's event queue. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> dummy:'a -> 'a t
(** [create ~cmp ~dummy] is an empty heap ordered by [cmp] (smallest
    first).  [dummy] fills the unused slots of the backing array, so a
    popped or cleared element is not kept alive by the heap. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val peek : 'a t -> 'a option

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Snapshot of the contents in no particular order. *)
