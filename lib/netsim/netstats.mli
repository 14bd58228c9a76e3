(** Byte and message accounting.  These totals are the measured quantity
    in the bandwidth-conservation experiments (paper §1): an agent
    architecture wins precisely when it moves fewer byte-hops than the
    client/server baseline.

    The metrics registry is the only store: {!Net} counts each message once
    there, and this module is the one place that knows which series make up
    the network totals.  A [t] is a snapshot, read when it is taken; it does
    not follow later traffic and keeps no reference to the registry. *)

type t

val of_metrics : Obs.Metrics.t -> t
(** The totals as the registry holds them now: [net.sent],
    [net.delivered], the sum of [net.drops{reason}], [net.bytes_sent] and
    the sum of [net.link.bytes{link}].  {!Net.stats} is this on the
    network's registry. *)

val messages_sent : t -> int
val messages_delivered : t -> int
val messages_dropped : t -> int

val bytes_sent : t -> int
(** Total payload bytes handed to the network (counted once per message). *)

val byte_hops : t -> int
(** Sum over messages of [size * hops]: the network-wide bandwidth cost.
    Every link a message crosses is charged its size in [net.link.bytes],
    so this is their sum. *)
