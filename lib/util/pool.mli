(** A parallel [List.map] over OCaml 5 domains, for sweeps of independent
    simulations.

    {b The determinism contract.}  Tasks must not share mutable simulation
    state: each task builds its own kernel, net, metrics registry, tracer
    and interpreter cache pair.  Every per-simulation value in this
    codebase already satisfies that (seeded split RNG streams, per-net
    registries, per-kernel id fountains, per-caches interpreter uids); a
    task is safe exactly when it only touches values it created.  Under
    that discipline the result is the same for every [jobs] value. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed by the calling domain and
    [min jobs (List.length xs) - 1] spawned ones, each taking the next
    unclaimed element.  Results line up with [xs] whatever order tasks
    finish in.  If tasks raise, every task still runs, and the exception of
    the lowest-indexed failure is re-raised with its backtrace.

    At [jobs <= 1] the calling domain runs every task itself, in list
    order; [0] means [Domain.recommended_domain_count ()].
    @raise Invalid_argument on negative [jobs]. *)
