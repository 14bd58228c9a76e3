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

(* 64 slots keep every column at 65 words, far below the largest block the
   minor heap takes (256 words), and a whole chunk below 700 words. *)
type chunk = {
  time : Float.Array.t;
  meta : int array; (* [site lsl 2 lor kind] *)
  trace : int array;
  span : int array;
  parent : int array;
  name : string array;
  cat : string array;
  agent : string array;
  msg : string array;
  attrs : Event.attrs array;
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
    name = Array.make n "";
    cat = Array.make n "";
    agent = Array.make n "";
    msg = Array.make n "";
    attrs = Array.make n [];
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

let record t ~time ~kind ~name ~cat ~site ~agent ~(span : Span.ctx) ~parent_id ~msg ~attrs =
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
  let c = t.chunks.(slot lsr chunk_bits) and i = slot land mask in
  Float.Array.set c.time i time;
  c.meta.(i) <- (site lsl 2) lor kind_code kind;
  c.trace.(i) <- span.trace_id;
  c.span.(i) <- span.span_id;
  c.parent.(i) <- parent_id;
  c.name.(i) <- name;
  c.cat.(i) <- cat;
  c.agent.(i) <- agent;
  c.msg.(i) <- msg;
  c.attrs.(i) <- attrs

let start_span t ~time ?parent ?(site = -1) ?(agent = "") ?(msg = "") ?(attrs = []) name =
  if not t.enabled then Span.null
  else begin
    let span_id = t.next_span in
    t.next_span <- span_id + 1;
    let trace_id, parent_id =
      match parent with
      | Some p when not (Span.is_null p) -> (p.Span.trace_id, p.Span.span_id)
      | Some _ | None ->
        let tid = t.next_trace in
        t.next_trace <- tid + 1;
        (tid, 0)
    in
    let span = { Span.trace_id; span_id } in
    record t ~time ~kind:Event.Begin ~name ~cat:"agent" ~site ~agent ~span ~parent_id
      ~msg ~attrs;
    span
  end

let end_span t ~time ?(site = -1) ?(agent = "") ?(attrs = []) span name =
  if t.enabled && not (Span.is_null span) then
    record t ~time ~kind:Event.End ~name ~cat:"agent" ~site ~agent ~span ~parent_id:0
      ~msg:"" ~attrs

let instant t ~time ?(span = Span.null) ?(cat = "") ?(site = -1) ?(agent = "")
    ?(msg = "") ?(attrs = []) name =
  if t.enabled then
    record t ~time ~kind:Event.Instant ~name ~cat ~site ~agent ~span ~parent_id:0 ~msg
      ~attrs

let event_at t ~seq slot =
  let c = t.chunks.(slot lsr chunk_bits) and i = slot land mask in
  let meta = c.meta.(i) and trace_id = c.trace.(i) and span_id = c.span.(i) in
  {
    Event.seq;
    time = Float.Array.get c.time i;
    kind = kind_of_code (meta land 3);
    name = c.name.(i);
    cat = c.cat.(i);
    site = meta asr 2;
    agent = c.agent.(i);
    span = (if trace_id = 0 && span_id = 0 then Span.null else { Span.trace_id; span_id });
    parent_id = c.parent.(i);
    msg = c.msg.(i);
    attrs = c.attrs.(i);
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
