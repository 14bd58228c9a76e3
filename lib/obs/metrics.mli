(** Metrics registry: counters, gauges and histograms keyed by
    (name x labels).  Always on — recording is a hashtable update (a field
    update through a {{!handles}handle}) and never perturbs the simulation
    (no RNG draws, no scheduling).

    A name is bound to one instrument kind; mixing kinds under one name
    raises [Invalid_argument] (it is a programming error, not data). *)

type t

type labels = (string * string) list
(** Label order is irrelevant: labels are sorted on lookup. *)

val create : unit -> t

val incr : t -> ?labels:labels -> ?by:int -> string -> unit
(** Counter increment ([by] defaults to 1). *)

val set_gauge : t -> ?labels:labels -> string -> float -> unit
val observe : t -> ?labels:labels -> string -> float -> unit

(** {1:handles Handles}

    A handle names one series up front, so a hot path pays the
    (name x labels) lookup once instead of on every update.  A handle
    registers its series on first use, not when created: the registry
    holds exactly the series that [incr]/[observe] by name would have
    created, with the same values.  A kind mismatch raises
    [Invalid_argument] at that first use. *)

type counter_handle
type histogram_handle

val counter_handle : t -> ?labels:labels -> string -> counter_handle
val histogram_handle : t -> ?labels:labels -> string -> histogram_handle

val bump : counter_handle -> int -> unit
(** [bump h n] is [incr ~by:n] on the handle's series. *)

val record : histogram_handle -> float -> unit
(** [observe] on the handle's series. *)

(** {1 Reading} *)

val counter : t -> ?labels:labels -> string -> int
(** 0 when the series does not exist. *)

val gauge : t -> ?labels:labels -> string -> float option
val histogram : t -> ?labels:labels -> string -> Hist.t option

val counter_total : t -> string -> int
(** Sum of a counter across all label sets. *)

type value = Counter of int | Gauge of float | Histogram of Hist.t

val fold : (name:string -> labels:labels -> value -> 'a -> 'a) -> t -> 'a -> 'a
(** Deterministic order: sorted by (name, labels). *)

val pp : Format.formatter -> t -> unit
(** Text dump in a prometheus-flavoured format, one series per line. *)
