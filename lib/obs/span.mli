(** Span context: the (trace-id, span-id) pair an agent carries in the
    system TRACE folder of its briefcase.  Migrations copy the briefcase,
    so the context propagates causally: the activation at the destination
    parents itself to the span that was live when the agent dispatched. *)

type ctx = { trace_id : int; span_id : int }

val null : ctx
(** [{trace_id = 0; span_id = 0}] — what the tracer hands out while
    disabled.  Never recorded. *)

val is_null : ctx -> bool

val to_string : ctx -> string
(** Wire form carried in the briefcase, e.g. ["t3.s17"]. *)

val of_string : string -> ctx option
(** Inverse of [to_string]; [None] on malformed input. *)

val parse : string -> ctx
(** [of_string] without the option: {!null} on malformed input. *)

val pp : Format.formatter -> ctx -> unit
