type timer = { mutable live : bool; mutable on_cancel : unit -> unit }

type event = { time : float; seq : int; fire : unit -> unit; handle : timer }

type t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : event Tacoma_util.Heap.t;
  mutable live_count : int;
  mutable compaction_count : int;
  metrics : Obs.Metrics.t option;
}

let compare_event a b =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

(* fills the queue's unused slots: never popped, never fired *)
let vacant =
  { time = infinity; seq = -1; fire = ignore; handle = { live = false; on_cancel = ignore } }

let create ?metrics () =
  {
    clock = 0.0;
    next_seq = 0;
    queue = Tacoma_util.Heap.create ~cmp:compare_event ~dummy:vacant;
    live_count = 0;
    compaction_count = 0;
    metrics;
  }

let now t = t.clock

(* Cancelled events stay in the heap until popped; under heavy cancellation
   (guard timeout timers, booking deadlines) they can come to dominate it.
   Once dead entries outnumber live ones, rebuild the heap from the live
   entries.  Rebuilding never changes pop order: the (time, seq) ordering is
   total, so any heap over the same live set pops identically. *)
let compaction_threshold = 64

let maybe_compact t =
  let len = Tacoma_util.Heap.length t.queue in
  if len >= compaction_threshold && len - t.live_count > len / 2 then begin
    let live =
      List.filter (fun ev -> ev.handle.live) (Tacoma_util.Heap.to_list t.queue)
    in
    Tacoma_util.Heap.clear t.queue;
    List.iter (Tacoma_util.Heap.push t.queue) live;
    t.compaction_count <- t.compaction_count + 1;
    match t.metrics with
    | Some m -> Obs.Metrics.incr m "engine.compactions"
    | None -> ()
  end

let schedule_at t ~at fire =
  let at = max at t.clock in
  let handle = { live = true; on_cancel = (fun () -> ()) } in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live_count <- t.live_count + 1;
  handle.on_cancel <-
    (fun () ->
      t.live_count <- t.live_count - 1;
      maybe_compact t);
  Tacoma_util.Heap.push t.queue { time = at; seq; fire; handle };
  handle

let schedule t ~after fire = schedule_at t ~at:(t.clock +. max 0.0 after) fire

let cancel handle =
  if handle.live then begin
    handle.live <- false;
    handle.on_cancel ()
  end

let rec step t =
  match Tacoma_util.Heap.pop t.queue with
  | None -> false
  | Some ev ->
    if ev.handle.live then begin
      ev.handle.live <- false;
      t.live_count <- t.live_count - 1;
      t.clock <- ev.time;
      ev.fire ();
      true
    end
    else step t (* cancelled entry: skip without advancing the clock *)

(* The next *live* event, discarding dead entries from the top.  [run
   ~until] must look through cancelled heads: deciding on the raw head time
   would let [step] skip past it and fire a live event beyond [until]. *)
let rec peek_live t =
  match Tacoma_util.Heap.peek t.queue with
  | Some ev when not ev.handle.live ->
    ignore (Tacoma_util.Heap.pop t.queue);
    peek_live t
  | other -> other

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some stop ->
    let continue = ref true in
    while !continue do
      match peek_live t with
      | Some ev when ev.time <= stop -> if not (step t) then continue := false
      | Some _ | None ->
        t.clock <- max t.clock stop;
        continue := false
    done

let pending t = t.live_count
let compactions t = t.compaction_count
