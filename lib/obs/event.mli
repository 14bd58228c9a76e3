(** One structured flight-recorder event, as {!Tracer.events} reads it
    back: every event carries site, agent, span identity and typed
    attributes, so a dumped trace can be reloaded and the causal tree of a
    run reconstructed.  The recorder does not store these records: it
    renders [name], [msg] and [attrs] from the event's {!Desc.t} and
    arguments when the trace is read. *)

type attr = S of string | I of int | F of float
type attrs = (string * attr) list

type kind =
  | Begin  (** a span opened (activation, meet) *)
  | End  (** the matching span closed *)
  | Instant  (** a point event (send, drop, migrate, relaunch, ...) *)

type t = {
  seq : int;  (** monotonic sequence number, breaks time ties *)
  time : float;  (** simulated seconds *)
  kind : kind;
  name : string;  (** e.g. ["activate:ag_script"], ["net.send"] *)
  cat : string;  (** subsystem: ["net"], ["kernel"], ["agent"], ... *)
  site : int;  (** [-1] when not site-bound *)
  agent : string;  (** [""] when not agent-bound *)
  span : Span.ctx;  (** [Span.null] for unattributed events *)
  parent_id : int;  (** parent span id, [0] for roots / instants *)
  msg : string;  (** human-readable detail, [""] when attrs suffice *)
  attrs : attrs;
}

val attr_to_string : attr -> string
(** As [pp] and a rendered message write it: floats as [%g]. *)

val pp : Format.formatter -> t -> unit
