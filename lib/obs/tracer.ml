(* The recorder keeps its events in fixed-size chunks of unboxed columns:
   slot [s] lives at offset [s land mask] of chunk [s lsr chunk_bits].
   Chunks are made as the slots first fill and are reused in place once the
   recorder wraps, so no event is ever copied.  Until it first fills, the
   events sit at slots [0, len); after that [start] advances with every
   eviction.  An event's [seq] is not stored: the recorder holds the [len]
   most recent of [seq] events, so the oldest one's is [seq - len]. *)

let chunk_bits = 6
let chunk_size = 1 lsl chunk_bits
let mask = chunk_size - 1

(* Arguments per event, by type: the most any {!Desc.t} reads. *)
let n_ints = 3
let n_floats = 2
let n_strs = 2

(* 64 slots keep every column within 192 words, below the largest block the
   minor heap takes (256 words).  Event [i]'s int arguments sit at
   [ints.(n_ints * i ..)], and likewise for floats and strings. *)
type chunk = {
  time : Float.Array.t;
  meta : int array; (* [site lsl 2 lor kind] *)
  trace : int array;
  span : int array;
  parent : int array;
  desc : Desc.t array;
  agent : string array;
  ints : int array;
  floats : Float.Array.t;
  strs : string array;
}

type t = {
  enabled : bool;
  cap : int;
  mutable chunks : chunk array; (* doubles up to [cap / chunk_size], rounded up *)
  mutable start : int; (* slot of the oldest event *)
  mutable len : int;
  mutable evicted : int;
  mutable next_trace : int;
  mutable next_span : int;
  mutable seq : int;
}

let make_chunk n =
  {
    time = Float.Array.create n;
    meta = Array.make n 0;
    trace = Array.make n 0;
    span = Array.make n 0;
    parent = Array.make n 0;
    desc = Array.make n Desc.named_span;
    agent = Array.make n "";
    ints = Array.make (n_ints * n) 0;
    floats = Float.Array.create (n_floats * n);
    strs = Array.make (n_strs * n) "";
  }

let no_chunk = make_chunk 0

let create ?(capacity = 65536) ?(enabled = false) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  {
    enabled;
    cap = capacity;
    chunks = [||];
    start = 0;
    len = 0;
    evicted = 0;
    next_trace = 1;
    next_span = 1;
    seq = 0;
  }

let enabled t = t.enabled

(* Makes chunk [c], the first one not yet made; the directory of chunks is
   only pointers, so doubling it copies a few words per chunk at most. *)
let add_chunk t c =
  if c = Array.length t.chunks then begin
    let size = min ((t.cap + mask) lsr chunk_bits) (max 4 (2 * c)) in
    let chunks = Array.make size no_chunk in
    Array.blit t.chunks 0 chunks 0 c;
    t.chunks <- chunks
  end;
  t.chunks.(c) <- make_chunk (min chunk_size (t.cap - (c lsl chunk_bits)))

let kind_code = function Event.Begin -> 0 | Event.End -> 1 | Event.Instant -> 2
let kind_of_code = function 0 -> Event.Begin | 1 -> Event.End | _ -> Event.Instant

(* The slot the next event goes to, evicting the oldest one when full. *)
let claim t =
  let slot =
    if t.len < t.cap then begin
      let slot = t.len in
      if slot land mask = 0 then add_chunk t (slot lsr chunk_bits);
      t.len <- slot + 1;
      slot
    end
    else begin
      (* overwrite the oldest slot and advance the window *)
      let slot = t.start in
      t.start <- (if slot + 1 = t.cap then 0 else slot + 1);
      t.evicted <- t.evicted + 1;
      slot
    end
  in
  t.seq <- t.seq + 1;
  slot

(* Every column of the slot is written, so a reused slot keeps nothing of
   its evicted event alive.  Not [@inline]: inlined into the kernel's and
   the network's hot functions, even behind the [enabled] test, the
   recording code slowed untraced runs by 3–5%; a call costs a traced
   event only its boxed floats. *)
let record t d ~time ~kind ~(span : Span.ctx) ~parent_id ~site ~agent i0 i1 i2 f0 f1
    s0 s1 =
  let slot = claim t in
  let c = t.chunks.(slot lsr chunk_bits) and i = slot land mask in
  Float.Array.set c.time i time;
  c.meta.(i) <- (site lsl 2) lor kind;
  c.trace.(i) <- span.trace_id;
  c.span.(i) <- span.span_id;
  c.parent.(i) <- parent_id;
  c.desc.(i) <- d;
  c.agent.(i) <- agent;
  let k = n_ints * i in
  c.ints.(k) <- i0;
  c.ints.(k + 1) <- i1;
  c.ints.(k + 2) <- i2;
  let k = n_floats * i in
  Float.Array.set c.floats k f0;
  Float.Array.set c.floats (k + 1) f1;
  let k = n_strs * i in
  c.strs.(k) <- s0;
  c.strs.(k + 1) <- s1

let begin_code = kind_code Event.Begin
let end_code = kind_code Event.End
let instant_code = kind_code Event.Instant

let instant t d ~time ~site =
  if t.enabled then
    record t d ~time ~kind:instant_code ~span:Span.null ~parent_id:0 ~site ~agent:"" 0 0 0 0.0
      0.0 "" ""

let instant_ints t d ~time ~site i0 i1 i2 =
  if t.enabled then
    record t d ~time ~kind:instant_code ~span:Span.null ~parent_id:0 ~site ~agent:"" i0 i1 i2
      0.0 0.0 "" ""

let instant_nums t d ~time ~site i0 i1 f0 f1 =
  if t.enabled then
    record t d ~time ~kind:instant_code ~span:Span.null ~parent_id:0 ~site ~agent:"" i0 i1 0 f0
      f1 "" ""

let instant_strs t d ~time ~span ~site ~agent s0 s1 i0 i1 =
  if t.enabled then
    record t d ~time ~kind:instant_code ~span ~parent_id:0 ~site ~agent i0 i1 0 0.0 0.0 s0 s1

(* A fresh span id, in [parent]'s trace or, under [Span.null], a new one. *)
let new_span t (parent : Span.ctx) =
  let span_id = t.next_span in
  t.next_span <- span_id + 1;
  if Span.is_null parent then begin
    let trace_id = t.next_trace in
    t.next_trace <- trace_id + 1;
    { Span.trace_id; span_id }
  end
  else { Span.trace_id = parent.trace_id; span_id }

let open_span t d ~time ~parent ~site ~agent s0 i0 =
  if not t.enabled then Span.null
  else begin
    let span = new_span t parent in
    record t d ~time ~kind:begin_code ~span ~parent_id:parent.Span.span_id ~site ~agent i0 0 0 0.0 0.0
      s0 "";
    span
  end

let close_span t d ~time ~site ~agent span s0 =
  if t.enabled && not (Span.is_null span) then
    record t d ~time ~kind:end_code ~span ~parent_id:0 ~site ~agent 0 0 0 0.0 0.0 s0 ""

let start_span t ~time ?(parent = Span.null) ?(site = -1) ?(agent = "") name =
  open_span t Desc.named_span ~time ~parent ~site ~agent name 0

let end_span t ~time ?(site = -1) ?(agent = "") span name =
  close_span t Desc.named_span ~time ~site ~agent span name

(* ---- reading -------------------------------------------------------------- *)

let value c i ~site (a : Desc.arg) : Event.attr =
  match a with
  | Site -> I site
  | Agent -> S c.agent.(i)
  | Int k -> I c.ints.((n_ints * i) + k)
  | Float k -> F (Float.Array.get c.floats ((n_floats * i) + k))
  | Str k -> S c.strs.((n_strs * i) + k)
  | Text s -> S s
  | Pair (j, k) ->
    S (string_of_int c.ints.((n_ints * i) + j) ^ "-" ^ string_of_int c.ints.((n_ints * i) + k))

let text c i ~site = function
  | [] -> ""
  | [ Desc.Text s ] -> s
  | args -> String.concat "" (List.map (fun a -> Event.attr_to_string (value c i ~site a)) args)

let event_at t ~seq slot =
  let c = t.chunks.(slot lsr chunk_bits) and i = slot land mask in
  let meta = c.meta.(i) and trace_id = c.trace.(i) and span_id = c.span.(i) in
  let site = meta asr 2 and d = c.desc.(i) in
  {
    Event.seq;
    time = Float.Array.get c.time i;
    kind = kind_of_code (meta land 3);
    name = text c i ~site d.name;
    cat = d.cat;
    site;
    agent = c.agent.(i);
    span = (if trace_id = 0 && span_id = 0 then Span.null else { Span.trace_id; span_id });
    parent_id = c.parent.(i);
    msg = text c i ~site d.msg;
    attrs = List.map (fun (k, a) -> (k, value c i ~site a)) d.attrs;
  }

let events t =
  let oldest = t.seq - t.len in
  let acc = ref [] in
  for k = t.len - 1 downto 0 do
    let slot = t.start + k in
    let slot = if slot >= t.cap then slot - t.cap else slot in
    acc := event_at t ~seq:(oldest + k) slot :: !acc
  done;
  !acc

let length t = t.len
let evicted t = t.evicted

let clear t =
  t.chunks <- [||];
  t.start <- 0;
  t.len <- 0;
  t.evicted <- 0;
  t.next_trace <- 1;
  t.next_span <- 1;
  t.seq <- 0
