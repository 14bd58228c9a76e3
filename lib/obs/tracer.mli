(** The flight recorder proper: a bounded window of structured events plus
    span-id allocation.

    Every event is of a kind that a static {!Desc.t} describes, and the
    recorder keeps only what varies: the time, site, agent, span ids, the
    descriptor, and up to three int, two float and two string arguments.
    The strings are ones the caller already holds (agent and site names,
    static reasons), shared, not copied.

    Storage: events are kept as columns, not records, in chunks of 64
    slots that are made as the slots first fill and reused in place once
    the recorder wraps; no event is ever copied.  One event costs its
    fourteen column words (time and float arguments unboxed; kind and site
    packed in one int; trace, span and parent ids; the descriptor, the
    agent, three ints, two strings) plus a share of its chunk's headers,
    about 14.3 words in all, and recording allocates nothing but a new
    chunk every 64th event and the boxed floats the call passes (two words
    for the time, two for each float argument): no event record, message,
    attribute list or option.  {!events} renders the names, messages and
    attributes into {!Event.t} values when asked.

    Cost discipline: every recording function is a no-op while the tracer
    is disabled, and a span opened then is [Span.null], with no ids
    allocated.  Call sites guard with [enabled] where working out an
    argument costs anything, so the disabled path allocates nothing —
    tracing off must leave a simulation byte-identical. *)

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] (default 65536) bounds the events kept; the oldest are
    evicted beyond it.  Storage is made by the recorded events, one chunk
    at a time, so a tracer that stays disabled allocates none.  [enabled]
    defaults to [false].  Raises [Invalid_argument] when [capacity <= 0]. *)

val enabled : t -> bool

(** {1 Recording}

    Each function records one event of kind [d] with the arguments its
    shape takes; the arguments [d] does not read are ignored.  [site] is
    [-1] for an event bound to no site. *)

val instant : t -> Desc.t -> time:float -> site:int -> unit

val instant_ints : t -> Desc.t -> time:float -> site:int -> int -> int -> int -> unit
(** Int arguments 0–2. *)

val instant_nums : t -> Desc.t -> time:float -> site:int -> int -> int -> float -> float -> unit
(** Int arguments 0–1, float arguments 0–1. *)

val instant_strs :
  t ->
  Desc.t ->
  time:float ->
  span:Span.ctx ->
  site:int ->
  agent:string ->
  string ->
  string ->
  int ->
  int ->
  unit
(** String arguments 0–1, int arguments 0–1; attributed to [span] unless
    that is [Span.null]. *)

val open_span :
  t -> Desc.t -> time:float -> parent:Span.ctx -> site:int -> agent:string -> string -> int -> Span.ctx
(** Opens a span and records its [Begin] event, with string argument 0 and
    int argument 0.  Under a [parent] other than [Span.null] the new span
    joins the parent's trace and records the causal edge; otherwise a fresh
    trace id is allocated (a new root).  Returns [Span.null] when
    disabled. *)

val close_span :
  t -> Desc.t -> time:float -> site:int -> agent:string -> Span.ctx -> string -> unit
(** Records the [End] event for a span, with string argument 0.  No-op
    when disabled or when the span is [Span.null] (one begun while tracing
    was off). *)

val start_span :
  t -> time:float -> ?parent:Span.ctx -> ?site:int -> ?agent:string -> string -> Span.ctx
(** {!open_span} of a span called [name] ({!Desc.named_span}). *)

val end_span : t -> time:float -> ?site:int -> ?agent:string -> Span.ctx -> string -> unit
(** {!close_span} of a span called [name]. *)

(** {1 Reading} *)

val events : t -> Event.t list
(** Oldest first, with their sequence numbers: an event's [seq] counts the
    events recorded before it since creation (or [clear]). *)

val length : t -> int
val evicted : t -> int
val clear : t -> unit
