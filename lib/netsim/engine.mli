(** Discrete-event simulation core.

    A single logical clock and a priority queue of callbacks.  Everything in
    the reproduction — message delivery, agent execution delays, failures,
    heartbeats — is an event on this queue, which is what makes whole-system
    runs deterministic. *)

type t

type timer
(** A scheduled event, used to cancel pending timeouts.  The timer {e is}
    the queued event: one record holding its time, sequence number,
    callback, liveness and owning engine.  Scheduling allocates that record
    and nothing else; cancelling marks it dead and tells its engine, and
    the dead entry is skipped when it reaches the head of the queue. *)

val create : ?metrics:Obs.Metrics.t -> unit -> t
(** [metrics], when given, receives the [engine.compactions] counter (see
    {!compactions}). *)

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> ?daemon:bool -> after:float -> (unit -> unit) -> timer
(** [schedule t ~after f] runs [f] at [now t +. after].  Negative delays are
    clamped to zero.  Events scheduled for the same instant fire in
    scheduling order.  A [daemon] event (default [false]) is background
    work, such as a periodic load report, that never keeps {!run} alive;
    it fires like any other event while the run lasts. *)

val schedule_at : t -> ?daemon:bool -> at:float -> (unit -> unit) -> timer
(** Absolute-time variant.  Times before [now] fire immediately (at [now]). *)

val cancel : timer -> unit
(** Cancelling an already-fired or cancelled timer is a no-op. *)

val step : t -> bool
(** Run the next event.  [false] if the queue was empty. *)

val run : ?until:float -> t -> unit
(** Without [until], fire events until no live non-daemon event is pending
    (quiescence), leaving the clock at the last event fired and any daemons
    queued.  Such a run never ends while a non-daemon loop, such as the
    Horus group heartbeats, is live.  With [until], fire every live event
    up to that time, then advance the clock to [until].  Cancelled entries
    at the head of the queue are discarded, never counted as the next
    event. *)

val pending : t -> int
(** Number of not-yet-fired, not-cancelled events. *)

val compactions : t -> int
(** How many times the queue has been rebuilt to shed cancelled entries.
    Compaction triggers when dead entries outnumber live ones (past a small
    size floor) and never changes the firing order. *)
