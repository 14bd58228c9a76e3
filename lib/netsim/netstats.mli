(** Byte and message accounting.  These counters are the measured quantity
    in the bandwidth-conservation experiments (paper §1): an agent
    architecture wins precisely when it moves fewer byte-hops than the
    client/server baseline.

    Bytes per link are in the metrics registry, as the counter
    [net.link.bytes{link="a-b"}] (see {!Net.metrics}). *)

type t

val create : unit -> t

(** Recording (called by {!Net}). *)

val record_send : t -> bytes:int -> hops:int -> unit
val record_delivery : t -> unit
val record_drop : t -> unit

(** Reading. *)

val messages_sent : t -> int
val messages_delivered : t -> int
val messages_dropped : t -> int

val bytes_sent : t -> int
(** Total payload bytes handed to the network (counted once per message). *)

val byte_hops : t -> int
(** Sum over messages of [size * hops]: the network-wide bandwidth cost. *)
