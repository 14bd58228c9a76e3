(** The flight recorder proper: a bounded ring of structured events plus
    span-id allocation.

    Cost discipline: every recording function is a no-op while the tracer
    is disabled, and [start_span] returns [Span.null] without allocating
    ids.  Call sites that would build attribute lists or format strings
    must guard with [enabled] so the disabled path allocates nothing —
    tracing off must leave a simulation byte-identical. *)

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] (default 65536) bounds the event ring; the oldest events are
    evicted beyond it.  The ring is allocated on the first recorded event,
    so a tracer that stays disabled allocates none.  [enabled] defaults to
    [false]. *)

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
(** Oldest first. *)

val length : t -> int
val evicted : t -> int
val clear : t -> unit
