(** Seeded invariant harness: a full TACOMA workload (guarded journeys,
    broker bookings, electronic-cash purchases) driven under a deterministic
    {!Netsim.Chaos} schedule, with machine-checked invariants per run.

    Each seed deterministically derives a random topology, a mixed chaos
    plan and a workload placement from independent split RNG streams, runs
    the simulation past a drain period, and checks:

    - every guarded journey completes {e exactly once}, or its loss is
      attributable to the chaos plan (a recorded guard give-up, the paper's
      double-failure window, a launch-time crash of the unguarded first
      hop, or a guard-site crash concurrent with other chaos);
    - no briefcase is ever at two sites at once (live bilocation detector
      around the per-hop work);
    - relaunch counts stay within the per-guard budget;
    - every booking resolves to an outcome; none hangs;
    - cash is conserved: no serial banked twice, banked value never exceeds
      minted value, no purchase both accepted and rejected;
    - chaos/metric accounting is consistent ([chaos.injected] +
      [chaos.skipped] equals the plan size; delivered + dropped never
      exceeds sent).

    The harness is what the chaos-smoke CI job and experiment E10 run. *)

type config = {
  sites : int;
  link_prob : float;       (** {!Netsim.Topology.random} edge probability *)
  booking_timeout : float;
  purchase_amount : int;
  horizon : float;         (** chaos plan covers [0, horizon) *)
  guarded : bool;          (** rear guards on (the protocol under test) or
                               off (the lossy baseline) *)
  guard : Guard.Escort.config;
  profile : Netsim.Chaos.profile;
}
(** [sites], [horizon], [guarded] and [profile] vary between the CLI, E10
    and the tests.  [link_prob], [booking_timeout], [purchase_amount] and
    [guard] take one value in the tree, but the benchmark's probes read
    them from [default_config], so they stay fields.

    The workload itself is fixed: 6 guarded journeys of 5 hops (clamped to
    [sites]) with 0.8 s of work per hop, 4 broker bookings of 1.5 units of
    work with up to 3 attempts each, and 3 purchases.  The run drains for
    600 s past the horizon so guards and timers resolve before the
    invariants are read. *)

val default_config : config

type verdict = {
  v_seed : int;
  v_guarded : bool;
  v_events : (string * int) list;  (** chaos plan composition, by kind *)
  v_journeys : int;
  v_completed : int;
  v_lost_attributed : int;
  v_relaunches : int;
  v_giveups : int;
  v_bookings_ok : int;
  v_bookings_failed : int;
  v_failovers : int;
  v_duplicate_fulfillments : int;
  v_cash_minted : int;
  v_cash_banked : int;
  v_msgs_sent : int;
  v_msgs_dropped : int;
  v_bytes_sent : int;
  v_violations : string list;  (** empty iff every invariant held *)
}

val passed : verdict -> bool

val plan_of_seed : ?config:config -> seed:int -> unit -> Netsim.Chaos.plan
(** Exactly the chaos plan {!run_seed} would generate for this seed and
    config — for dumping, editing and replaying. *)

val run_seed : ?config:config -> ?plan:Netsim.Chaos.plan -> seed:int -> unit -> verdict
(** Build, run and check one seeded chaos run.  Same seed and config —
    same verdict, bit for bit.  [plan] replays a stored schedule instead of
    generating one (the topology and workload still derive from [seed]). *)

val run_sweep :
  ?config:config -> ?plan:Netsim.Chaos.plan -> ?jobs:int -> seeds:int list -> unit -> verdict list
(** Run every seed and return verdicts in seed-list order.  [jobs]
    (default [1] = every seed on the calling domain, in order; [0] = all cores) fans seeds out
    with {!Tacoma_util.Pool.map}, one task per seed.  Each task builds its
    own kernel, net, metrics registry, tracer and interpreter caches, so
    the verdict list is byte-identical for every [jobs] value.  [plan]
    replays one stored schedule for {e every} seed, as in {!run_seed}. *)

val all_passed : verdict list -> bool

val verdict_json : verdict -> string
(** One JSON object per verdict (the CI artifact format). *)

val pp_verdict : Format.formatter -> verdict -> unit
