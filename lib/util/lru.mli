(** Bounded LRU cache with O(1) lookup, insert and eviction.

    The cache holds at most [budget] total weight; each value weighs
    [weight v] (default 1, making [budget] a plain entry-count bound).
    Inserting past the budget evicts least-recently-used entries one at a
    time — never a wholesale dump — so a hot working set survives a single
    cold insert.  Used for the interpreter's parse cache and for the
    per-site code cache's byte-budgeted store. *)

type ('k, 'v) t

val create :
  ?on_evict:('k -> 'v -> unit) ->
  ?weight:('v -> int) ->
  budget:int ->
  unit ->
  ('k, 'v) t
(** [on_evict] fires for each entry pushed out by an insert (not for
    {!remove}).  [weight] is sampled when a value is added.
    @raise Invalid_argument if [budget <= 0]. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership test without refreshing recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> bool
(** Insert or replace, refreshing recency and evicting LRU entries until
    the budget holds.  Returns [false] (and stores nothing) only when the
    value alone outweighs the whole budget. *)

val remove : ('k, 'v) t -> 'k -> unit

val length : ('k, 'v) t -> int
val used : ('k, 'v) t -> int
(** Total stored weight. *)

val budget : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Cumulative evictions since creation. *)

val keys : ('k, 'v) t -> 'k list
(** Keys in recency order, most recently used first. *)

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Fold in recency order, most recently used first. *)
