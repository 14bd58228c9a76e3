(** The simulated network: topology + event engine + failure state.

    Semantics:
    - messages follow the lowest-latency route between sites, are charged on
      every link of the route, and move store-and-forward: at each link the
      message waits for the link to free up (FIFO contention), serialises at
      the link bandwidth, then propagates for the link latency;
    - a message whose destination is down at delivery time, or that has no
      route (partition, crashed intermediates), is dropped silently — upper
      layers implement their own timeouts, exactly as real transports must;
    - a crashed site loses its handler and volatile state; [on_crash] hooks
      let upper layers model that loss. *)

type t

val create : ?seed:int64 -> ?trace:bool -> ?loss_rate:float -> Topology.t -> t
(** [loss_rate] (default 0.0) is the probability that any remote message is
    lost in transit — drawn deterministically from the network's seeded RNG.
    Local (same-site) deliveries are never lost. *)

val engine : t -> Engine.t
val topology : t -> Topology.t
val now : t -> float
val rng : t -> Tacoma_util.Rng.t
(** The root RNG stream for this network; split it rather than draw from it
    directly in long-lived components. *)

val stats : t -> Netstats.t
(** A snapshot of the network totals, read from {!metrics} now. *)

(** The structured flight recorder: every layer (kernel, broker, guard,
    horus, chaos) records spans and instants here.  Enabled by [create
    ~trace:true]; off, it records nothing. *)
val recorder : t -> Obs.Tracer.t

(** The simulation-wide metrics registry (always on): per-link bytes and
    queue waits, drops by reason, plus whatever upper layers register. *)
val metrics : t -> Obs.Metrics.t
val sites : t -> Site.id list
val neighbors : t -> Site.id -> Site.id list

(** {1 Messaging} *)

val set_handler : t -> Site.id -> key:string -> (Message.t -> unit) -> unit
(** Several protocol layers coexist on one site (TACOMA kernel, Horus,
    baseline RPC); each registers under its own [key] and filters messages
    by payload constructor.  Re-registering a key replaces that handler.
    All handlers are dropped when the site crashes. *)

val clear_handler : t -> Site.id -> key:string -> unit

val send : t -> src:Site.id -> dst:Site.id -> size:int -> Message.payload -> unit
(** Sending from a down site is a silent no-op (the sender cannot exist).
    [dst = src] delivers locally after a negligible fixed delay with no
    byte charge. *)

val route : t -> Site.id -> Site.id -> Site.id list option
(** The current route, as the list of sites after the source (so its length
    is the hop count).  [None] when unreachable. *)

val delivery_delay : t -> Site.id -> Site.id -> size:int -> float option
(** What [send] would charge right now on an idle network (contention from
    in-flight messages adds to this). *)

val route_cache_size : t -> int
(** Number of per-source rows currently in the route cache.  A row is what
    one search from its source leaves: each site's predecessor link on the
    source's lowest-latency tree, and the link lists of the destinations
    asked for so far, each built on its first lookup.  The search itself
    runs over scratch arrays that each net keeps, so a row costs two
    arrays of the site count and nothing else.  Bounded by the site count:
    every reachability change (crash, restart, partition, degradation)
    clears the cache eagerly rather than leaving stale rows to be
    overwritten on re-lookup.  Of two routes of equal latency, the one
    whose last hop comes from the site the search settles first wins, and
    sites at equal distance settle in the order the search's heap gives
    them, not by site id. *)

(** {1 Failures} *)

val site_up : t -> Site.id -> bool
val crash : t -> Site.id -> unit
val restart : t -> Site.id -> unit
val on_crash : t -> Site.id -> (unit -> unit) -> unit
val on_restart : t -> Site.id -> (unit -> unit) -> unit

val set_link_enabled : t -> Site.id -> Site.id -> bool -> unit
(** Disable/enable a link, modelling partitions.  Messages whose only routes
    crossed disabled links are dropped under reason ["partition"] in the
    metrics registry (vs ["no-route"] for genuine unreachability,
    ["site-down"] for a dead destination and ["loss"] for random loss).
    @raise Invalid_argument if the topology has no such link. *)

(** {1 Chaos hooks}

    Deterministic degraded-network windows, driven by {!Chaos} plans but
    usable directly.  All of them are orthogonal to the topology: clearing
    them restores the pristine link parameters. *)

val set_link_loss : t -> Site.id -> Site.id -> float option -> unit
(** Extra loss probability applied to every message crossing this link, on
    top of the net-wide rate; [None] clears it.  Losses on distinct links
    compound independently along a route.
    @raise Invalid_argument on a rate outside [0,1) or a missing link. *)

val set_loss_override : t -> float option -> unit
(** Temporarily replace the net-wide [loss_rate] (a global loss burst);
    [None] restores the rate given at creation. *)

val set_link_degraded : t -> Site.id -> Site.id -> (float * float) option -> unit
(** [(latency_mult, bandwidth_mult)] scaling the link's parameters for
    routing, serialisation and propagation — e.g. [(10., 0.1)] makes a link
    ten times slower both ways.  Degradation changes lowest-latency routes,
    so in-flight route caches are invalidated.  [None] restores the link.
    @raise Invalid_argument on non-positive factors or a missing link. *)

val link_degraded : t -> Site.id -> Site.id -> (float * float) option

(** {1 Convenience} *)

val run : ?until:float -> t -> unit
(** {!Engine.run}: without [until], until no live non-daemon event is
    pending — forever while a non-daemon loop (Horus heartbeats) lives. *)

val schedule : t -> ?daemon:bool -> after:float -> (unit -> unit) -> Engine.timer
(** {!Engine.schedule}; a [daemon] event never keeps {!run} alive. *)
