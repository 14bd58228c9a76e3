(** Cmdliner building blocks shared by the [tacoma] tool and experiment
    drivers, so every entry point parses transports, topologies and cache
    options the same way (and error messages list the same alternatives). *)

val transport_term : Tacoma_core.Kernel.transport option Cmdliner.Term.t
(** [--transport rsh|tcp|horus]; [None] means the kernel default. *)

type topology_kind = Ring | Line | Star | Mesh | Grid

val topology_conv : topology_kind Cmdliner.Arg.conv

val build_topology : topology_kind -> int -> Netsim.Topology.t
(** [Grid] builds the smallest square covering at least [n] sites. *)

val cache_term : Tacoma_core.Kernel.cache_config option Cmdliner.Term.t
(** [--code-cache] enables the content-addressed code cache with
    {!Tacoma_core.Kernel.default_cache_config}; [--code-cache-budget BYTES]
    overrides the per-site LRU budget (and implies [--code-cache]). *)

val jobs_term : int Cmdliner.Term.t
(** [--jobs N] (also [-j]): worker-domain count for sweep fan-out, handed
    to {!Tacoma_util.Pool}.  Default [1] (serial); [0] means
    [Domain.recommended_domain_count ()]. *)

val chaos_plan_conv : Netsim.Chaos.plan Cmdliner.Arg.conv
(** A chaos-plan file (the {!Netsim.Chaos.to_string} line format): the
    argument is a path, parsed with {!Netsim.Chaos.of_string} so replay
    errors name the offending line. *)

val apply_config :
  ?transport:Tacoma_core.Kernel.transport ->
  ?cache:Tacoma_core.Kernel.cache_config ->
  Tacoma_core.Kernel.config ->
  Tacoma_core.Kernel.config
(** Functional update helper threading the optional CLI choices into a
    base config. *)
