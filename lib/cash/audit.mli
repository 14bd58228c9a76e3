(** The audit scheme of paper §3.

    The paper rejects transactional exchange of money for services and
    instead has participants {e document their actions} so that a third
    party can audit: "Documenting actions sometimes requires the presence of
    a third agent" — here a {e witness} agent through which both the payment
    and the service handoff are routed.  The witness logs signed statements
    (but never cash serials or account identities — untraceability is
    preserved); a {e court} examines the log when an aggrieved agent
    requests an audit, and the cheating party is identified. *)

(** {1 Signed statements} *)

type statement = {
  tx : string;      (** transaction id *)
  action : string;  (** ["pay"] or ["serve"] *)
  actor : string;   (** party name *)
  amount : int;
  at : float;
  signature : string;
}

val sign :
  key:string -> tx:string -> action:string -> actor:string -> amount:int -> at:float ->
  statement

val statement_valid : key:string -> statement -> bool
val statement_wire : statement -> string
val statement_of_wire : string -> (statement, string) result

(** {1 The court} *)

type verdict =
  | Clean             (** both actions documented *)
  | Merchant_cheated  (** payment witnessed, no service by the deadline *)
  | Customer_cheated  (** service witnessed, no (valid) payment *)
  | No_transaction    (** nothing witnessed for this tx *)

val verdict_name : verdict -> string

val judge :
  keys:(string * string) list ->
  log:statement list ->
  tx:string ->
  verdict
(** Pure decision over a witness log.  Statements whose signatures do not
    verify under the registered party keys are ignored — a forged claim
    cannot sway the court. *)

(** {1 Agents} *)

val install_witness : Tacoma_core.Kernel.t -> site:Netsim.Site.id -> unit
(** Registers the [witness] agent: it appends the briefcase's [STMT] to its
    site cabinet log and forwards the briefcase to [FORWARD-HOST] /
    [FORWARD-AGENT]. *)

val install_court :
  Tacoma_core.Kernel.t -> site:Netsim.Site.id -> keys:(string * string) list -> unit
(** Registers the [court] agent at the witness's site.  Meet protocol: [TX]
    names the transaction; on return [VERDICT] holds the verdict name. *)

val read_witness_log : Tacoma_core.Kernel.t -> site:Netsim.Site.id -> statement list

(** {1 A complete purchase choreography}

    Used by the E4 experiment and the marketplace example: a customer pays a
    merchant through the witness; the merchant validates the cash with the
    bank's validator before serving. *)

type behavior = Honest | Cheat

type purchase = {
  p_tx : string;
  mutable merchant_accepted : bool; (** validator said the cash was good *)
  mutable merchant_rejected : bool; (** validator refused the cash *)
  mutable customer_served : bool;   (** service reached the customer *)
  mutable merchant_bills : Ecu.t list; (** fresh bills the merchant now owns *)
}

val purchase :
  Tacoma_core.Kernel.t ->
  tx:string ->
  amount:int ->
  bills:Ecu.t list ->
  customer:string * string * behavior ->
  merchant:string * string * behavior ->
  customer_site:Netsim.Site.id ->
  merchant_site:Netsim.Site.id ->
  witness_site:Netsim.Site.id ->
  bank_site:Netsim.Site.id ->
  purchase
(** Starts the choreography (asynchronous; drive the network to a quiescent
    point, then inspect the returned record and ask the court).  A cheating
    customer sends the payment {e around} the witness (unlogged) hoping to
    repudiate it; a cheating merchant banks the cash but never serves. *)
