(** TACOMA primitives as TScript commands.

    The kernel hands a {!host} record (its capabilities, already bound to
    one site and one briefcase) and this module registers the agent-visible
    command set on an interpreter.  Keeping the dependency in this
    direction means the script layer knows nothing about kernels — it sees
    only folders, cabinets, meets and time, exactly the surface the paper
    gives to Tcl agents. *)

type host = {
  site_name : unit -> string;
  self : unit -> string;          (** this agent's name *)
  now : unit -> float;
  neighbors : unit -> string list;
  meet : string -> unit;          (** meet named agent with the current briefcase *)
  sleep : float -> unit;          (** simulated compute/wait *)
  log : string -> unit;
  random_int : int -> int;
  cabinet : Cabinet.t;
  code : unit -> string;
  (** the source text of the currently executing agent, so it can re-ship
      itself: [folder set CODE \[selfcode\]; jump $next] *)
  dispatch : host:string -> contact:string -> unit;
  (** fire-and-forget: send a copy of the current briefcase to an agent at
      another site, without shipping code (courier-style messaging) *)
}

val install : host -> Briefcase.t -> Tscript.Interp.t -> unit
(** Registers, on top of the standard TScript commands:

    - [folder SUB ...] — briefcase folder ops
      (put/push/pop/peek/list/set/size/exists/clear/contains/names);
    - [cabinet SUB ...] — the same on the site-local cabinet, plus
      [kvset]/[kvget]/[flush];
    - [meet AGENT] — meet with the current briefcase;
    - [jump SITE ?CONTACT?] — sugar: set HOST/CONTACT and meet [rexec];
    - [dispatch SITE AGENT] — send a copy of the current briefcase (sans
      code shipping) to an agent elsewhere;
    - [host], [self], [now], [neighbors], [work SECONDS], [log MSG],
      [random N], [selfcode].

    [folder list|names], [cabinet list|names] and [neighbors] reply with
    their items ({!Tscript.Interp.Items}), so a script iterating over one
    reads the elements without parsing a rendered list. *)
