(** Broker agents (paper §4): well-known-name matchmakers holding a database
    of service providers and their load/capacity reports.

    An agent that requires a service consults a broker to identify which
    agents provide it.  Brokers also "communicate among themselves": the
    routing overlay ({!Routing}) forwards a lookup from broker to broker
    until one knows the service.

    Meet protocol, dispatched on the [OP] folder:
    - ["register"]: [PROVIDER], [SERVICE], [HOST], [CAPACITY]
    - ["report"]:   same folders plus [LOAD] (sent by load monitors); for a
      provider the broker already knows, only [LOAD] and the report time
      are taken, and its registered service, host and capacity stay
    - ["lookup"]:   [SERVICE] (and optionally [POLICY], and [EXCLUDE] — a
      comma-separated list of provider names to skip, used by clients
      failing over from an unreachable provider); the broker answers in
      [PROVIDER] and [PROVIDER-HOST], or [STATUS] = ["no-provider"].  When
      the lookup briefcase names [REPLY-HOST]/[REPLY-AGENT], the answered
      briefcase is additionally sent back there, so lookups also work
      remotely (see {!Booking}). *)

type t

val install :
  Tacoma_core.Kernel.t ->
  site:Netsim.Site.id ->
  name:string ->
  ?policy:Policy.t ->
  ?max_report_age:float ->
  unit ->
  t
(** Registers the broker agent under [name] (a "well known" name).  The
    default policy is [Least_loaded]; lookups may override per-request with
    a [POLICY] folder.  With [max_report_age], providers whose last report
    (or registration) is older are excluded from lookups — a crashed
    provider silently ages out of the database once its load monitor stops
    reporting. *)

val register_provider : t -> Provider.t -> unit
(** Local-convenience registration (same effect as a ["register"] meet). *)

val lookup :
  t ->
  service:string ->
  ?exclude:string list ->
  ?policy:Policy.t ->
  unit ->
  Policy.candidate option
(** Direct query against this broker's current database.  [exclude] names
    providers to skip — a client that timed out on a provider retries the
    lookup with it excluded. *)

val candidates : t -> service:string -> Policy.candidate list

(** [services t] lists the distinct service names with at least one
    registered provider. *)
val services : t -> string list

val site : t -> Netsim.Site.id
val agent_name : t -> string
