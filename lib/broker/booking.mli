(** Timeout-and-failover booking: the client side of the broker protocol,
    hardened against partitions.

    The paper's broker (§4) only answers lookups; what happens when the
    chosen provider is unreachable is the client's problem.  This module
    makes the end-to-end path survive that: a booking asks the matchmaker
    for a provider (remotely, via the reply-to extension of the lookup op),
    submits the job, and watches an end-to-end timer.  If {e anything} on
    the path — lookup, submission, execution, completion notice — fails to
    come back within [timeout], the attempt is abandoned, the chosen
    provider is added to the exclusion list, and the lookup is retried
    against an alternate provider, up to three attempts in all.

    Counted in the metrics registry: [broker.bookings],
    [broker.bookings_ok], [broker.booking_failures], [broker.failovers] and
    [broker.duplicate_fulfillments] (an abandoned provider completing
    late — the at-most-once caveat of timeout-based failover). *)

type t

type outcome =
  | Booked of { provider : string; attempts : int }
  | Failed of { attempts : int }

val book :
  Tacoma_core.Kernel.t ->
  client:Netsim.Site.id ->
  broker:Netsim.Site.id * string ->
  service:string ->
  ?work:float ->
  ?policy:Policy.t ->
  ?timeout:float ->
  ?on_done:(outcome -> unit) ->
  id:string ->
  unit ->
  t
(** Start a booking from site [client] against the matchmaker at [broker].
    [work] is the job duration handed to the provider (default 1.0s);
    [timeout] (default 10s) bounds each attempt end-to-end; [on_done] fires
    exactly once.  [id] must be unique per kernel. *)

val result : t -> outcome option
(** [None] while still in flight. *)

val attempts : t -> int
