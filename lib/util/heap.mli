(** Array-backed binary min-heap of [int] elements keyed by unboxed
    floats: the frontier of {!Netsim.Net}'s route search.

    Ties are broken by the heap's own sifts, never by the element: two
    entries with equal keys leave in the order the pushes and pops so far
    have placed them.  Keys must not be NaN. *)

type t

val create : int -> t
(** An empty heap with room for [n] entries before it grows. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> float -> int -> unit
(** [push t key elt] *)

val pop : t -> int
(** Removes the entry with the smallest key and returns its element.
    @raise Invalid_argument on an empty heap. *)

val clear : t -> unit
