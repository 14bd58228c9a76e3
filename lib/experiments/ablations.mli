(** Ablations over the design choices the reproduction makes, each isolating
    one mechanism:

    - {b A1} load-report staleness: how much of the broker's E5 win comes
      from fresh load information (report period swept up to "never");
    - {b A2} rear-guard tuning: guard patience (ack timeout) against wasted
      duplicate relaunches, and what durable (checkpointed) guards add;
    - {b A3} the kernel-wide Horus group: its background heartbeat cost
      versus what it buys — fast abort of retransmissions to dead sites;
    - {b A4} agent code size: how big the shipped CODE folder can get
      before the E1 bandwidth advantage evaporates. *)

type a1_row = { period : string; mean_response : float; p95_response : float }

type a2_row = {
  ack_timeout : float;
  durable : bool;
  completed : int;
  trials : int;
  relaunches : float;   (** per trial *)
  mean_time : float;
}

type a3_row = {
  group_on : bool;
  idle_bytes_per_s : float;  (** background cost on an idle 8-site mesh *)
  abort_latency : float;     (** giving up on a permanently dead target *)
}

type a4_row = { code_bytes : int; ratio : float (** c-s/agent at 5% selectivity *) }

type a5_row = {
  chain_length : int;     (** brokers between the client and the provider *)
  broker_hops : int;      (** hops the query actually travelled *)
  lookup_latency : float; (** request to reply, seconds *)
}

val run_a1 : unit -> a1_row list
val run_a2 : unit -> a2_row list
val run_a3 : unit -> a3_row list
val run_a4 : unit -> a4_row list

val run_a5 : ?chain_lengths:int list -> unit -> a5_row list
(** {b A5} the broker routing overlay (paper §4: "equivalent to routing in
    a wide-area network"): resolve a service registered [L] brokers away;
    hops equal the overlay distance and latency grows linearly. *)

(** One table printer per ablation; [tacoma exp abl] runs them in order. *)
val print_a1 : Format.formatter -> unit
val print_a2 : Format.formatter -> unit
val print_a3 : Format.formatter -> unit
val print_a4 : Format.formatter -> unit
val print_a5 : Format.formatter -> unit
