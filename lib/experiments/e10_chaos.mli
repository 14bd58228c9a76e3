(** E10 — availability under chaos (paper §5/§7: "available systems" on
    unreliable wide-area networks).

    Claim: rear guards keep mobile computations available not just under
    site crashes (E6) but under the full failure surface — partitions,
    loss bursts, degradations — at a bounded byte overhead.

    Workload: the chaos harness's full mix (guarded journeys, broker
    bookings, cash purchases) under {!Netsim.Chaos.mixed} plans whose
    bisection (clean partition) rate sweeps upward, guards on vs off over
    identical chaos plans.

    Expected shape: guarded completion stays near 100% while unguarded
    completion degrades as the partition rate rises; relaunches and the
    guard byte overhead grow with the rate — availability is bought with
    retransmitted briefcases. *)

type row = {
  partition_rate : float;  (** bisection events per second, net-wide *)
  seeds : int;
  guarded_frac : float;    (** completed fraction of guarded journeys *)
  unguarded_frac : float;
  mean_relaunches : float; (** per guarded run *)
  giveups : int;           (** guards that exhausted their budget, total *)
  guarded_bytes : int;     (** mean wire bytes per guarded run *)
  unguarded_bytes : int;
}

type params = { seeds : int; rates : float list }

val default_params : params
val run : ?params:params -> unit -> row list

val print_table : Format.formatter -> unit
