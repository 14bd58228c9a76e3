(** The mint: issuing authority and live-serial registry.

    The paper's validation-agent scheme in one mechanism: a valid ECU is one
    whose signature verifies {e and} whose serial is still live in the
    registry.  Validation {e retires} the old serial and issues an
    equivalent fresh ECU ("effectively retiring an old bill and replacing it
    by a new one"), so a copied bill spends at most once.  The registry maps
    serials to nothing but amounts — no owners — preserving untraceability. *)

type t

type failure =
  | Forged       (** signature does not verify *)
  | Double_spent (** signature fine, but the serial was already retired *)

val failure_name : failure -> string

val create : ?seed:int64 -> secret:string -> unit -> t

val issue : t -> amount:int -> Ecu.t
(** Mint new money (registers a fresh live serial).
    @raise Invalid_argument on non-positive amounts. *)

val signature_valid : t -> Ecu.t -> bool
val live : t -> Ecu.t -> bool

val validate_and_reissue : t -> Ecu.t -> (Ecu.t, failure) result
(** The §3 validation: check, retire, replace.  On failure nothing is
    retired. *)

val split : t -> Ecu.t -> parts:int list -> (Ecu.t list, failure) result
(** Retire one bill, issue several summing to the same amount (exact-change
    making).  @raise Invalid_argument if [parts] are non-positive or do not
    sum to the bill's amount. *)

val merge : t -> Ecu.t list -> (Ecu.t, failure) result
(** Retire several bills, issue one for the total.  Fails atomically: if any
    input is bad, none are retired. *)

val redeem : t -> Ecu.t -> (int, failure) result
(** Retire a bill for good (no reissue) and return its value — burning fuel,
    settling a payment into an external account, etc.  Money leaves
    circulation: [outstanding] decreases. *)

val outstanding : t -> int
(** Total value of live serials — conservation checks in tests. *)
