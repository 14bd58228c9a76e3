(** Bounded ring buffer: O(1) push, oldest element evicted when full.  The
    flight recorder stores its event stream here so a long simulation keeps
    a fixed memory footprint and the most recent history. *)

type 'a t

val create : int -> 'a t
(** [create capacity] — raises [Invalid_argument] when [capacity <= 0].
    The buffer grows with the pushes, doubling from 64 slots up to
    [capacity], so a ring holds about as many slots as it has held
    elements, whatever its capacity. *)

val capacity : 'a t -> int
val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** Appends; evicts the oldest element when the buffer is full. *)

val evicted : 'a t -> int
(** How many elements have been pushed out since creation (or [clear]). *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val clear : 'a t -> unit
(** Empties the ring and releases its buffer. *)
