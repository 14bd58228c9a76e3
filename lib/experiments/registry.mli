(** The experiment index: every table the harness can regenerate, keyed by
    the experiment ids used in DESIGN.md and EXPERIMENTS.md. *)

type entry = {
  id : string;           (** e.g. ["e1"] *)
  title : string;
  paper_claim : string;  (** the paper section and claim it reproduces *)
  print : Format.formatter -> unit;
}

val all : entry list
val find : string -> entry option

val run : entry list -> Format.formatter -> unit
(** Regenerate the given tables in order. *)

val run_all : Format.formatter -> unit
