(** Group membership in the style of Horus [vRHB94]: process groups with
    agreed views, heartbeat failure detection and rejoin.

    The TACOMA prototype's third [rexec] implementation runs over Horus
    (paper §6), and rear guards (§5) need its failure detection.  Nothing
    in TACOMA multicasts, so this from-scratch implementation over
    {!Netsim} keeps only membership:

    - every member heartbeats every other member; silence beyond a fail
      timeout triggers a view change, installed by the lowest-ranked live
      member of the new view (so the coordinator's successor acts when the
      coordinator itself is suspected);
    - a crashed member that restarts can [rejoin]: the coordinator admits
      it and sends it the new view, and sends it the view again whenever it
      retries after losing it. *)

type t

val create : Netsim.Net.t -> name:string -> members:Netsim.Site.id list -> t
(** Installs an endpoint on every member site and starts heartbeating.
    All members must currently be up. *)

val view_at : t -> Netsim.Site.id -> View.t option
(** The view currently installed at one member ([None] if that site is not
    an active member, e.g. crashed or removed). *)

val rejoin : t -> Netsim.Site.id -> unit
(** Ask the current coordinator to re-admit this (restarted) site, retrying
    every second until a view that holds it arrives.  After ten unanswered
    attempts the site installs a singleton view of its own but keeps
    asking, and the coordinator that finally hears it admits it in a view
    that outranks the singleton, so the site merges back once its links
    heal. *)
