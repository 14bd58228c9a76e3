(** Network topologies: sites and bidirectional links with latency and
    bandwidth.  Shortest-path routing (by latency) is computed over this
    graph; multi-hop traffic is charged on every traversed link, which is
    what the bandwidth-conservation experiments measure. *)

type t

type link = { latency : float;  (** one-way, seconds *)
              bandwidth : float (** bytes per second *) }

val create : unit -> t

val add_site : t -> name:string -> Site.id
(** Sites are numbered densely from 0 in creation order.
    @raise Invalid_argument once the topology is frozen. *)

val add_link : t -> Site.id -> Site.id -> latency:float -> bandwidth:float -> unit
(** Bidirectional.  Re-adding an existing link overwrites its parameters.
    @raise Invalid_argument once the topology is frozen. *)

val site_count : t -> int
val site_name : t -> Site.id -> string
val sites : t -> Site.id list
val neighbors : t -> Site.id -> Site.id list
val link : t -> Site.id -> Site.id -> link option
val iter_links : t -> (Site.id -> Site.id -> link -> unit) -> unit
(** Each undirected link is visited once, with [src < dst]. *)

(** {1 Frozen index}

    {!Net.create} freezes its topology: sites and links are numbered
    densely, so routing and per-link state index arrays instead of hashing
    site pairs. *)

type index = private {
  nbr : Site.id array array;  (** per site: {!neighbors}, in that order *)
  nbr_link : int array array; (** per site: the link id to each neighbour *)
  params : link array;        (** per link id *)
  lo : Site.id array;         (** per link id: the lower end *)
  hi : Site.id array;         (** per link id: the higher end *)
}

val freeze : t -> index
(** Builds the index on the first call and returns the same one after;
    from then on {!add_site} and {!add_link} raise [Invalid_argument]. *)

val link_id : index -> Site.id -> Site.id -> int
(** The id of the link between two sites, or [-1] when there is none. *)

(** {1 Generators}

    Every link a generator makes has 5 ms latency and 1 MB/s bandwidth, a
    mid-1990s LAN/WAN mix matching the paper's Tromsø–Cornell setting
    ({!wan_pair} has its own two link kinds).  A net with other link
    parameters is built with {!create}, {!add_site} and {!add_link}. *)

val ring : int -> t
val star : int -> t
(** [star n] has a hub (site 0) and [n] spokes. *)

val full_mesh : int -> t
val grid : int -> int -> t
(** [grid rows cols]. *)

val line : int -> t

val random : rng:Tacoma_util.Rng.t -> n:int -> p:float -> unit -> t
(** Erdős–Rényi with edge probability [p]; a spanning ring is always added
    so the graph is connected. *)

val wan_pair : cluster:int -> unit -> t
(** The paper's own deployment shape (Tromsø and Cornell): two full-mesh
    LAN clusters of [cluster] sites each, joined by a single slow WAN link
    between site 0 (first cluster) and site [cluster] (second cluster).
    Its links model 1995: 1 ms / 10 MB/s LANs, a 100 ms / 64 KB/s WAN. *)
