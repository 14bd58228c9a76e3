(** What every kind of flight-recorder event looks like: one static
    descriptor per kind, naming its event, category, message and attribute
    keys, each built from the few typed values the recorder stores per
    event (see {!Tracer}).  {!Tracer.events} renders them into the
    {!Event.t} fields when a trace is read, so recording allocates no
    message string and no attribute list.

    This module is the catalogue of every event the libraries record; the
    comments give each kind's arguments, in the order its recording call
    takes them. *)

(** Where a piece of a name, message or attribute comes from. *)
type arg =
  | Site  (** the event's site, as an int *)
  | Agent  (** the event's agent *)
  | Int of int  (** int argument [0..2] *)
  | Float of int  (** float argument [0..1] *)
  | Str of int  (** string argument [0..1] *)
  | Text of string  (** a constant *)
  | Pair of int * int  (** int arguments [i] and [j], written ["i-j"] *)

type t = {
  name : arg list;  (** concatenated, like [msg] *)
  cat : string;
  msg : arg list;  (** concatenated: ints in decimal, floats as [%g]; [[]] gives [""] *)
  attrs : (string * arg) list;
      (** an int or a site gives [Event.I], a float [Event.F], anything
          else [Event.S] *)
}

(** {1 Net}

    [net_send]: dst, bytes, hops.  [net_deliver]: src, bytes; latency.
    [net_drop_site_down], at the dead destination: bytes, src.  The other
    drops, at the sender: dst, bytes. *)

val net_send : t
val net_deliver : t
val net_drop_site_down : t
val net_drop_partition : t
val net_drop_no_route : t
val net_drop_loss : t
val net_crash : t
val net_restart : t

(** {1 Kernel}

    Span names are the agent's: ["activate:"] or ["meet:"] and the agent;
    a [_failed] end carries the error as string 0.  [fetch] begins a code
    fetch: digest; src.  [agent_log]: the message.  [kernel_death]: the
    reason (the message), the class.  [horus_giveup]: dst, attempts.  One
    [migrate_] per transport: the source and destination site names; dst,
    bytes; the contact is the agent. *)

val activate : t
val activate_failed : t
val meet : t
val meet_failed : t
val fetch : t
val fetch_done : t
val fetch_failed : t
val agent_log : t
val kernel_death : t
val horus_giveup : t
val migrate_rsh : t
val migrate_tcp : t
val migrate_horus : t

(** {1 Guards, Horus, chaos}

    [guard_relaunch]: journey; hop, attempt.  [horus_view]: group,
    suspects; view.  Chaos events have no site.  [chaos_crash]: site;
    downtime.  [chaos_cut]: label; links.  [chaos_loss]: rate.
    [chaos_link_loss]: the link's two sites; rate.  [chaos_degrade]: the
    link's two sites; latency and bandwidth factors. *)

val guard_relaunch : t
val horus_view : t
val chaos_crash : t
val chaos_cut : t
val chaos_loss : t
val chaos_link_loss : t
val chaos_degrade : t
val chaos_heal_crash : t
val chaos_heal_cut : t
val chaos_heal_loss : t
val chaos_heal_degrade : t

val named_span : t
(** A span whose name is string 0: {!Tracer.start_span}'s. *)

val all : t list
(** Every descriptor above. *)
