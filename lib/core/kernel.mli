(** The TACOMA kernel: one place per site, the [meet] operation, and
    restart-style agent migration over the simulated network.

    Execution model (faithful to the paper):
    - an {e agent} is a named piece of code — a native OCaml handler or a
      TScript source — installed at a place or carried in a CODE folder;
    - [meet] executes the named agent {e at the current site} with a
      briefcase as its argument list; the caller resumes when the target
      terminates the meet;
    - migration is performed by meeting the [rexec] system agent
      ({!Sysagents}), which ships the briefcase (including CODE) to the
      HOST site and executes the CONTACT agent there — the source-side
      computation simply ends, and the persistent state travels in the
      briefcase;
    - long-running behaviour (simulated compute, rear-guard timers) uses
      {!sleep}, implemented with OCaml effects so that a whole meet stack
      suspends and a site crash kills suspended activations. *)

type t

type transport = Rsh | Tcp | Horus
(** The three [rexec] implementations of paper §6: spawn-per-hop [rsh],
    connection-caching [Tcp], and reliable (ack + retransmit, failure-
    detecting) [Horus]. *)

val transport_of_string : string -> transport option
val transport_name : transport -> string

(** {1 Configuration}

    Per-transport knobs live in their own sub-records, so a caller tweaks
    one transport with a nested functional update and [default_config]
    supplies everything else:
    {[
      { Kernel.default_config with
        horus = { Kernel.default_config.horus with max_attempts = 8 } }
    ]} *)

type rsh_config = {
  spawn_delay : float; (** remote interpreter spawn cost, seconds *)
  extra_bytes : int;   (** per-hop overhead beyond the briefcase *)
}

type tcp_config = {
  handshake_bytes : int; (** first use of a (src,dst) connection *)
  extra_bytes : int;
}

type horus_config = {
  extra_bytes : int;
  ack_bytes : int;
  rto : float;        (** retransmission timeout, seconds *)
  max_attempts : int;
  group : bool;       (** maintain the kernel-wide Horus group *)
}

type cache_config = Codecache.config = {
  budget_bytes : int;
  request_bytes : int;
  reply_overhead_bytes : int;
  fetch_timeout : float;
  fetch_attempts : int;
}
(** Re-exported so callers configure the cache without importing
    {!Codecache}. *)

type config = {
  default_transport : transport;
  step_limit : int option;     (** per-activation interpreter budget *)
  migration_overhead : int;    (** framing bytes added to every migration *)
  rsh : rsh_config;
  tcp : tcp_config;
  horus : horus_config;
  cache : cache_config option;
      (** [Some _] enables the per-site content-addressed code cache: the
          CODE folder ships as a digest, resolved from the receiving
          place's cache or fetched back from the sender on a miss
          ({!Codecache}).  [None] (the default) ships code in full on
          every hop, byte-identical to kernels predating the cache. *)
}

val default_rsh_config : rsh_config
val default_tcp_config : tcp_config
val default_horus_config : horus_config

val default_cache_config : cache_config
(** = {!Codecache.default_config}; [default_config.cache] is still [None] —
    opting in is explicit. *)

val default_config : config

exception Agent_error of string
(** Protocol-level failure of an agent (missing folder, unknown agent,
    script error).  Propagates up the meet chain; a script-level [catch]
    in a calling agent traps it. *)

exception Aborted of string
(** The activation was killed from outside (site crash). *)

type ctx = { kernel : t; site : Netsim.Site.id; self : string }
(** Execution context handed to native agents. *)

type native = ctx -> Briefcase.t -> unit
(** Native agents mutate the briefcase in place; the mutated briefcase is
    what the caller of [meet] observes afterwards. *)

val create : ?config:config -> Netsim.Net.t -> t
(** Builds a place on every site, installs the {!Sysagents} system agents,
    and arms crash/restart hooks (a restarted place recovers only the
    flushed part of its cabinet). *)

val net : t -> Netsim.Net.t
val config : t -> config
val now : t -> float
val rng : t -> Tacoma_util.Rng.t

val fresh_id : t -> int
(** A per-kernel id fountain (1, 2, 3, …) for protocol-level unique names
    (e.g. one-shot reply agents).  Deliberately {e not} a process-wide
    counter: concurrent simulations in a {!Tacoma_util.Pool} sweep must
    each see the same id sequence they would see alone, or generated names
    (and thus message byte counts) would depend on scheduling. *)

(** {1 Flight recorder}

    The kernel records into the network's shared recorder and metrics
    registry ({!Netsim.Net.recorder} / {!Netsim.Net.metrics}): activation
    and meet spans; instants for migrations (["kernel.migrate"]), deaths
    (["kernel.death"], the reason as message), agent [log] lines
    (["agent.log"]) and abandoned horus retransmissions (["horus.giveup"]);
    per-agent interpreter profiles; and the counters
    [kernel.activations{agent}], [kernel.completions{agent}],
    [kernel.deaths{agent,class}] and [kernel.migrations{transport}].  Those
    counters are the kernel's only bookkeeping: the introspection functions
    below read them back.  Span context travels in the briefcase's
    {!Briefcase.trace_folder}, so a journey's hops — including guard
    relaunches, which re-ship a snapshot briefcase — form one causal
    tree. *)

val recorder : t -> Obs.Tracer.t
val metrics : t -> Obs.Metrics.t

val briefcase_span : Briefcase.t -> Obs.Span.ctx option
(** The span context the briefcase currently carries, if any. *)

(** {1 Sites} *)

val site_named : t -> string -> Netsim.Site.id option
val site_name : t -> Netsim.Site.id -> string
val cabinet : t -> Netsim.Site.id -> Cabinet.t
(** The site's file cabinet.  After a crash this is a fresh recovery. *)

val neighbor_names : t -> Netsim.Site.id -> string list

(** {1 Agents} *)

val register_native : t -> ?site:Netsim.Site.id -> string -> native -> unit
(** Without [site], available at every place (system-agent style),
    including places rebuilt after a crash. *)

val install_script : t -> ?site:Netsim.Site.id -> string -> code:string -> unit
(** Install a TScript agent under a well-known name. *)

val agent_exists : t -> Netsim.Site.id -> string -> bool

(** {1 Execution} *)

val meet : ctx -> string -> Briefcase.t -> unit
(** The meet operation.  Executes the named agent at [ctx.site],
    synchronously.  When tracing is on, the callee runs under a child span
    of whatever span the briefcase carried.  @raise Agent_error if the
    agent is unknown. *)

val launch :
  ?daemon:bool -> t -> site:Netsim.Site.id -> contact:string -> Briefcase.t -> unit
(** Start a fresh top-level activation (scheduled immediately).  Launching
    at a down site is a silent no-op.  A [daemon] activation (default
    [false]), such as a load monitor, starts and {!sleep}s on daemon events
    ({!Netsim.Engine.schedule}), so it never keeps a run alive. *)

val sleep : ctx -> float -> unit
(** Suspend the current activation for simulated seconds.  Only callable
    from inside an activation.  @raise Aborted when the site crashes while
    suspended. *)

val run_code : ctx -> code:string -> Briefcase.t -> unit
(** Execute TScript source as the current agent (used by [ag_script] and
    installed script agents).  @raise Agent_error on script errors. *)

val set_step_policy : t -> (Briefcase.t -> int option) option -> unit
(** Admission policy for script activations: called with the incoming
    briefcase, it returns the interpreter step budget ([None] = fall back
    to [config.step_limit]).  This is the hook the electronic-cash fuel
    scheme plugs into (paper §3: "charging for services would limit
    possible damage by a run-away agent") — see [Cash.Fuel]. *)

val migrate :
  t ->
  src:Netsim.Site.id ->
  dst:Netsim.Site.id ->
  contact:string ->
  transport:transport ->
  Briefcase.t ->
  unit
(** Ship a copy of the briefcase to [dst] and execute [contact] there.
    Asynchronous; cost and reliability depend on [transport]. *)

(** {1 Messaging below rexec}

    Used by substrate libraries (brokers, guards) that need raw kernel
    messaging with byte accounting but not code shipping. *)

val send_briefcase :
  t -> src:Netsim.Site.id -> dst:Netsim.Site.id -> contact:string -> Briefcase.t -> unit
(** One-way: deliver the briefcase to [contact] at [dst] over the plain
    network (no spawn cost, no handshake, no ack). *)

(** {1 Code cache} *)

val code_cache : t -> Netsim.Site.id -> Codecache.t option
(** The site's cache when [config.cache] is set.  Volatile: cleared by the
    kernel's crash hook, so a restarted place re-fetches. *)

val cache_saved_bytes : t -> int
(** Net wire bytes avoided by digest substitution so far: bytes stripped
    from migrations minus the full cost of every fallback fetch exchange.
    Mirrored in the ["codecache.bytes_saved"] gauge. *)

(** {1 Introspection}

    Reads of the [kernel.*] counters in {!metrics}, summed over labels. *)

val migrations : t -> int
val activations : t -> int
val deaths : t -> int
val completions : t -> int

type agent_activity = {
  a_activations : int;
  a_completions : int;
  a_deaths : int;
}

val activity : t -> (string * agent_activity) list
(** Per-agent-name accounting across the whole run, sorted by name: the
    [agent]-labelled [kernel.*] counters, one entry per agent that was
    activated, completed or died. *)

val on_death : t -> (site:Netsim.Site.id -> agent:string -> reason:string -> unit) -> unit
val on_complete : t -> (site:Netsim.Site.id -> agent:string -> unit) -> unit

val horus_group : t -> Horus.Group.t option
(** The kernel-wide group when [config.horus.group] is set. *)
