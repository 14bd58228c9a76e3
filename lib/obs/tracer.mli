(** The flight recorder proper: a bounded window of structured events plus
    span-id allocation.

    Storage: events are kept as columns, not records, in chunks of 64
    slots that are made as the slots first fill and reused in place once
    the recorder wraps; no event is ever copied.  One event costs its ten
    column words (time unboxed; kind and site packed in one int; trace,
    span and parent ids; references to name, category, agent, message and
    attributes) plus a share of its chunk's headers, about 10.3 words in
    all, and [record] allocates nothing but a new chunk every 64th event:
    no event record, option or boxed float.  The strings and attribute
    lists are the caller's, shared, not copied.  {!events} builds the
    {!Event.t} values when asked.

    Cost discipline: every recording function is a no-op while the tracer
    is disabled, and [start_span] returns [Span.null] without allocating
    ids.  Call sites that would build attribute lists or format strings
    must guard with [enabled] so the disabled path allocates nothing —
    tracing off must leave a simulation byte-identical. *)

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] (default 65536) bounds the events kept; the oldest are
    evicted beyond it.  Storage is made by the recorded events, one chunk
    at a time, so a tracer that stays disabled allocates none.  [enabled]
    defaults to [false].  Raises [Invalid_argument] when [capacity <= 0]. *)

val enabled : t -> bool

val start_span :
  t ->
  time:float ->
  ?parent:Span.ctx ->
  ?site:int ->
  ?agent:string ->
  ?msg:string ->
  ?attrs:Event.attrs ->
  string ->
  Span.ctx
(** Opens a span and records a [Begin] event.  With [parent], the new span
    joins the parent's trace and records the causal edge; without, a fresh
    trace id is allocated (a new root).  Returns [Span.null] when
    disabled. *)

val end_span :
  t ->
  time:float ->
  ?site:int ->
  ?agent:string ->
  ?attrs:Event.attrs ->
  Span.ctx ->
  string ->
  unit
(** Records the [End] event for [ctx].  No-op when disabled or when [ctx]
    is [Span.null] (a span begun while tracing was off). *)

val instant :
  t ->
  time:float ->
  ?span:Span.ctx ->
  ?cat:string ->
  ?site:int ->
  ?agent:string ->
  ?msg:string ->
  ?attrs:Event.attrs ->
  string ->
  unit
(** Records a point event, optionally attributed to a live span. *)

val events : t -> Event.t list
(** Oldest first, with their sequence numbers: an event's [seq] counts the
    events recorded before it since creation (or [clear]). *)

val length : t -> int
val evicted : t -> int
val clear : t -> unit
