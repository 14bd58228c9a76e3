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
    - a crashed member that restarts can [rejoin], asking the members of
      the last view it held: the coordinator admits it and sends it the new
      view, and sends it the view again whenever it retries after losing
      it.  No member reads another's state: each knows only the views it
      has received. *)

type t

val create : Netsim.Net.t -> name:string -> members:Netsim.Site.id list -> t
(** Installs an endpoint on every member site and starts heartbeating.
    All members must currently be up. *)

val view_at : t -> Netsim.Site.id -> View.t option
(** The view currently installed at one member ([None] if that site is not
    an active member, e.g. crashed or removed). *)

val rejoin : t -> Netsim.Site.id -> unit
(** Ask to re-admit this (restarted) site.  All it knows of the group is
    the last view it held with other members in it (the view it held when
    it crashed, unless it crashed again while rejoining): it sends a join
    request to that view's other members in rank order, one a second,
    until a view that holds it arrives; a crash ends the tries.  A member that is not its view's coordinator forwards
    the request to its coordinator (unless that is the joiner or the
    member the request came from).  After ten unanswered attempts the site
    installs a singleton view, numbered one above its last view, but keeps
    asking, and the coordinator that finally hears it admits it in a view
    that outranks the singleton, so the site merges back once its links
    heal. *)
