(** Service providers: single-server FIFO queues over the kernel.

    A provider with capacity [c] serves a job of nominal [WORK] seconds in
    [WORK / c] simulated seconds, one job at a time.  Queue length is kept
    in the site cabinet under ["LOAD"] (key ["queue"]) so the load-monitor
    agent (paper §6's "agent responsible for monitoring the status of a
    site") can report it to brokers.

    Job briefcase protocol: [SERVICE], [JOB], [WORK], optional [TICKET], and
    [REPLY-HOST]/[REPLY-AGENT] for the completion notice. *)

type t

val install :
  Tacoma_core.Kernel.t ->
  site:Netsim.Site.id ->
  name:string ->
  service:string ->
  capacity:float ->
  ?ticket_key:string ->
  unit ->
  t
(** Registers the provider agent under [name].  When [ticket_key] is given,
    jobs without a currently-valid ticket are rejected (counted, replied
    with [STATUS] ["rejected"]). *)

val name : t -> string
val service : t -> string
val capacity : t -> float
val site : t -> Netsim.Site.id
val queue_length : t -> int
val completed : t -> int
val rejected : t -> int
val busy_time : t -> float
(** Total simulated seconds spent serving — utilisation measurements. *)

val start_load_monitor :
  Tacoma_core.Kernel.t ->
  t ->
  brokers:(Netsim.Site.id * string) list ->
  period:float ->
  unit
(** The monitoring agent: every [period] seconds, courier the provider's
    current queue length and capacity to each broker.  It runs as a daemon
    ({!Tacoma_core.Kernel.launch}), so it never keeps a run alive. *)
