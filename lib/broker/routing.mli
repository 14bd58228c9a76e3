(** Service routing between brokers — the paper's §4 closing question made
    concrete: "The problem of maintaining the requisite state information
    and intelligently distributing service requests seems to be equivalent
    to that of routing in a wide-area network."

    Brokers form an overlay graph.  Each broker periodically advertises to
    its peers the services it can reach and at what hop distance (distance-
    vector, Bellman-Ford style, with a hop horizon and report expiry so
    crashed brokers age out).  A lookup that misses locally is forwarded
    along the gradient toward the nearest broker that knows a provider, and
    the answer travels straight back to the requester. *)

type t

type route = { service : string; cost : int; via : string (** peer broker name *) }

val create : Tacoma_core.Kernel.t -> ?advert_period:float -> unit -> t
(** Advertise every [advert_period] (default 1 s).  The hop horizon is 16
    hops, and an entry expires after 3 advertisement periods without
    refresh. *)

val add_broker : t -> Matchmaker.t -> unit
(** Registers the routing agent ["route:<broker-name>"] at the broker's
    site and starts its advertisement loop, a daemon
    ({!Tacoma_core.Kernel.launch}) that never keeps a run alive. *)

val connect : t -> Matchmaker.t -> Matchmaker.t -> unit
(** Bidirectional overlay link between two registered brokers. *)

val routes : t -> Matchmaker.t -> route list
(** The broker's current remote-service routing table (local services are
    not listed — they resolve directly). *)

val routed_lookup :
  t ->
  from:Matchmaker.t ->
  service:string ->
  on_reply:((Policy.candidate * int, string) result -> unit) ->
  unit
(** Resolve a service starting at [from], forwarding across the overlay.
    On success the reply carries the chosen candidate and the number of
    broker hops the query travelled.  [Error] carries ["no-provider"] (or a
    TTL exhaustion note).  The callback fires at most once; lost messages
    (crashed brokers) mean it may never fire. *)
