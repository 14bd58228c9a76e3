(** An agent's money: the set of ECU records it carries (paper §3: "each
    agent stores records for the ECUs it owns"; funds transfer is placing
    those records in a briefcase). *)

type t

val create : unit -> t
val add : t -> Ecu.t -> unit
val add_all : t -> Ecu.t list -> unit
val balance : t -> int
val bills : t -> Ecu.t list
val count : t -> int

val take_exact : t -> amount:int -> Ecu.t list option
(** Remove a subset of bills summing exactly to [amount], if one exists
    (largest-first greedy with backtracking — bill counts are small). *)

val take_at_least : t -> amount:int -> Ecu.t list option
(** Remove a minimal-overshoot subset covering [amount]. *)

(** {1 Briefcase plumbing}

    Money moves between agents by placing ECU records in a folder. *)

val to_folder : t -> Tacoma_core.Folder.t -> unit
(** Append every bill (wire form) to the folder, emptying the wallet. *)

val of_folder : Tacoma_core.Folder.t -> t
(** Drain a folder of ECU records (malformed elements are skipped). *)
