(* The event record is the timer handle: cancelling flips [live] and tells
   the owning engine, so scheduling allocates one record and nothing else.
   The queue is a binary min-heap on (time, seq) over an array whose slots
   past [size] hold [vacant], so it keeps nothing alive it no longer
   contains.  [live_work] counts the live events that are not daemons: an
   unbounded [run] stops when it reaches zero. *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable heap : timer array;
  mutable size : int;
  mutable live_count : int;
  mutable live_work : int;
  mutable compaction_count : int;
  metrics : Obs.Metrics.t option;
}

and timer = {
  time : float;
  seq : int;
  fire : unit -> unit;
  daemon : bool;
  mutable live : bool;
  owner : t;
}

(* fills the queue's unused slots: never popped, never fired *)
let rec vacant =
  {
    time = infinity;
    seq = -1;
    fire = ignore;
    daemon = false;
    live = false;
    owner = vacant_owner;
  }

and vacant_owner =
  {
    clock = 0.0;
    next_seq = 0;
    heap = [||];
    size = 0;
    live_count = 0;
    live_work = 0;
    compaction_count = 0;
    metrics = None;
  }

let create ?metrics () =
  {
    clock = 0.0;
    next_seq = 0;
    heap = [||];
    size = 0;
    live_count = 0;
    live_work = 0;
    compaction_count = 0;
    metrics;
  }

let now t = t.clock

(* [Stdlib.max] on floats, without the polymorphic comparison *)
let[@inline] fmax (a : float) b = if a >= b then a else b

let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let rec sift_up heap i ev =
  if i = 0 then heap.(0) <- ev
  else begin
    let parent = (i - 1) / 2 in
    let p = heap.(parent) in
    if before ev p then begin
      heap.(i) <- p;
      sift_up heap parent ev
    end
    else heap.(i) <- ev
  end

let rec sift_down heap size i ev =
  let l = (2 * i) + 1 in
  if l >= size then heap.(i) <- ev
  else begin
    let r = l + 1 in
    let c = if r < size && before heap.(r) heap.(l) then r else l in
    let child = heap.(c) in
    if before child ev then begin
      heap.(i) <- child;
      sift_down heap size c ev
    end
    else heap.(i) <- ev
  end

let push t ev =
  if t.size = Array.length t.heap then begin
    let grown = Array.make (max 16 (2 * t.size)) vacant in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) ev

(* Remove the head; the caller has checked [size > 0]. *)
let pop t =
  let heap = t.heap in
  let top = heap.(0) in
  let last = t.size - 1 in
  t.size <- last;
  let moved = heap.(last) in
  heap.(last) <- vacant;
  if last > 0 then sift_down heap last 0 moved;
  top

(* Cancelled events stay in the heap until popped; under heavy cancellation
   (guard timeout timers, booking deadlines) they can come to dominate it.
   Once dead entries outnumber live ones, drop them and re-heapify in
   place.  Rebuilding never changes pop order: the (time, seq) ordering is
   total, so any heap over the same live set pops identically. *)
let compaction_threshold = 64

let maybe_compact t =
  let len = t.size in
  if len >= compaction_threshold && len - t.live_count > len / 2 then begin
    let heap = t.heap in
    let kept = ref 0 in
    for i = 0 to len - 1 do
      let ev = heap.(i) in
      if ev.live then begin
        heap.(!kept) <- ev;
        incr kept
      end
    done;
    Array.fill heap !kept (len - !kept) vacant;
    t.size <- !kept;
    for i = (!kept / 2) - 1 downto 0 do
      sift_down heap !kept i heap.(i)
    done;
    t.compaction_count <- t.compaction_count + 1;
    match t.metrics with
    | Some m -> Obs.Metrics.incr m "engine.compactions"
    | None -> ()
  end

let schedule_at t ?(daemon = false) ~at fire =
  let ev = { time = fmax at t.clock; seq = t.next_seq; fire; daemon; live = true; owner = t } in
  t.next_seq <- t.next_seq + 1;
  t.live_count <- t.live_count + 1;
  if not daemon then t.live_work <- t.live_work + 1;
  push t ev;
  ev

let schedule t ?daemon ~after fire = schedule_at t ?daemon ~at:(t.clock +. fmax 0.0 after) fire

(* the one place a live event stops being live, whether fired or cancelled *)
let[@inline] retire t ev =
  ev.live <- false;
  t.live_count <- t.live_count - 1;
  if not ev.daemon then t.live_work <- t.live_work - 1

let cancel ev =
  if ev.live then begin
    let t = ev.owner in
    retire t ev;
    maybe_compact t
  end

let rec step t =
  if t.size = 0 then false
  else begin
    let ev = pop t in
    if ev.live then begin
      retire t ev;
      t.clock <- ev.time;
      ev.fire ();
      true
    end
    else step t (* cancelled entry: skip without advancing the clock *)
  end

(* Discard dead entries from the top, so the head, if any, is the next
   *live* event.  [run ~until] must look through cancelled heads: deciding
   on the raw head time would let [step] skip past it and fire a live event
   beyond [until]. *)
let rec drop_dead t =
  if t.size > 0 && not t.heap.(0).live then begin
    ignore (pop t);
    drop_dead t
  end

let run ?until t =
  match until with
  | None -> while t.live_work > 0 && step t do () done
  | Some stop ->
    drop_dead t;
    while t.size > 0 && t.heap.(0).time <= stop do
      ignore (step t);
      drop_dead t
    done;
    t.clock <- fmax t.clock stop

let pending t = t.live_count
let compactions t = t.compaction_count
