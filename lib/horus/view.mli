(** Group views, after Horus/ISIS: an agreed, numbered snapshot of the
    membership.  The member with the smallest site id is the coordinator;
    it drives membership changes. *)

type t = { id : int; members : Netsim.Site.id list (* sorted ascending *) }

val make : id:int -> members:Netsim.Site.id list -> t
val coordinator : t -> Netsim.Site.id option
val mem : t -> Netsim.Site.id -> bool
val size : t -> int
val without : t -> Netsim.Site.id -> t
(** Next view (id incremented) with the site removed. *)

val with_member : t -> Netsim.Site.id -> t
val pp : Format.formatter -> t -> unit
