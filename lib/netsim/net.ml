module Rng = Tacoma_util.Rng

(* [handlers] are kept in the order they run in, registration order; hooks,
   registered often (one per guarded journey) and run rarely, newest first *)
type site_state = {
  mutable up : bool;
  mutable handlers : (string * (Message.t -> unit)) list;
  mutable crash_hooks : (unit -> unit) list;
  mutable restart_hooks : (unit -> unit) list;
}

(* What the send path keeps per undirected link, created on the link's first
   message: handles on its two series (labelled "a-b", a < b) and the FIFO
   serialisation horizon. *)
type link_state = {
  link_bytes : Obs.Metrics.counter_handle;
  link_wait : Obs.Metrics.histogram_handle;
  mutable busy_until : float;
}

(* One source's shortest-path tree: per destination, the link that reaches
   it ([-1] for the source and for unreachable sites), and the route's link
   ids in order, built the first time the destination is asked for. *)
type route_row = { pred : int array; paths : int list option array }

let no_row = { pred = [||]; paths = [||] }

type t = {
  engine : Engine.t;
  topo : Topology.t;
  ix : Topology.index;
  rng : Rng.t;
  loss_rng : Rng.t;
  loss_rate : float;
  recorder : Obs.Tracer.t;
  metrics : Obs.Metrics.t;
  sent : Obs.Metrics.counter_handle;
  bytes_sent : Obs.Metrics.counter_handle;
  delivered : Obs.Metrics.counter_handle;
  msg_hops : Obs.Metrics.histogram_handle;
  delivery_latency : Obs.Metrics.histogram_handle;
  site_states : site_state array;
  (* per link id: *)
  disabled : bool array;
  link_loss : float option array; (* chaos: extra loss *)
  link_degrade : (float * float) option array;
      (* chaos: (latency multiplier, bandwidth multiplier) *)
  links : link_state option array; (* created on the link's first message *)
  (* how many links are disabled, lossy and degraded: 0 skips the arrays *)
  mutable n_disabled : int;
  mutable n_lossy : int;
  mutable n_degraded : int;
  mutable loss_override : float option; (* chaos: window replacing loss_rate *)
  route_cache : route_row array; (* per source; emptied on any reachability change *)
  (* the route search's scratch, one per net: [Pool] runs nets on several
     domains at once *)
  dist : Float.Array.t;
  settled : Bytes.t;
  frontier : Tacoma_util.Heap.t;
}

let create ?(seed = 42L) ?(trace = false) ?(loss_rate = 0.0) topo =
  if loss_rate < 0.0 || loss_rate >= 1.0 then invalid_arg "Net.create: loss_rate must be in [0,1)";
  let n = Topology.site_count topo in
  let ix = Topology.freeze topo in
  let nlinks = Array.length ix.params in
  let rng = Rng.create seed in
  let metrics = Obs.Metrics.create () in
  {
    engine = Engine.create ~metrics ();
    topo;
    ix;
    loss_rng = Rng.split rng;
    loss_rate;
    rng;
    recorder = Obs.Tracer.create ~enabled:trace ();
    metrics;
    sent = Obs.Metrics.counter_handle metrics "net.sent";
    bytes_sent = Obs.Metrics.counter_handle metrics "net.bytes_sent";
    delivered = Obs.Metrics.counter_handle metrics "net.delivered";
    msg_hops = Obs.Metrics.histogram_handle metrics "net.msg_hops";
    delivery_latency = Obs.Metrics.histogram_handle metrics "net.delivery_latency_s";
    site_states =
      Array.init n (fun _ ->
          { up = true; handlers = []; crash_hooks = []; restart_hooks = [] });
    disabled = Array.make nlinks false;
    link_loss = Array.make nlinks None;
    link_degrade = Array.make nlinks None;
    links = Array.make nlinks None;
    n_disabled = 0;
    n_lossy = 0;
    n_degraded = 0;
    loss_override = None;
    route_cache = Array.make n no_row;
    dist = Float.Array.make n infinity;
    settled = Bytes.make n '\000';
    (* every directed link is relaxed at most once, plus the source *)
    frontier = Tacoma_util.Heap.create ((2 * nlinks) + 1);
  }

let engine t = t.engine
let topology t = t.topo
let now t = Engine.now t.engine
let rng t = t.rng
let stats t = Netstats.of_metrics t.metrics
let recorder t = t.recorder
let metrics t = t.metrics
let sites t = Topology.sites t.topo
let neighbors t s = Topology.neighbors t.topo s

let state t s =
  if s < 0 || s >= Array.length t.site_states then invalid_arg "Net: unknown site";
  t.site_states.(s)

let set_handler t s ~key h =
  let st = state t s in
  st.handlers <- List.remove_assoc key st.handlers @ [ (key, h) ]

let clear_handler t s ~key =
  let st = state t s in
  st.handlers <- List.remove_assoc key st.handlers
let site_up t s = (state t s).up

(* Any reachability change invalidates every cached route at once, eagerly:
   a long chaos run that churns links must not keep stale rows. *)
let invalidate_routes t = Array.fill t.route_cache 0 (Array.length t.route_cache) no_row

let route_cache_size t =
  Array.fold_left (fun n row -> if row == no_row then n else n + 1) 0 t.route_cache

(* Chaos degradation windows scale a link's parameters without touching the
   topology itself: latency is multiplied, bandwidth is multiplied (a factor
   below 1.0 slows the link down). *)
let[@inline] effective_latency t lid =
  let l = t.ix.params.(lid) in
  if t.n_degraded = 0 then l.latency
  else match t.link_degrade.(lid) with None -> l.latency | Some (lm, _) -> l.latency *. lm

let[@inline] effective_bandwidth t lid =
  let l = t.ix.params.(lid) in
  if t.n_degraded = 0 then l.bandwidth
  else match t.link_degrade.(lid) with None -> l.bandwidth | Some (_, bm) -> l.bandwidth *. bm

(* Dijkstra over latency, skipping disabled links.  A down site may be
   reached (it can be a message destination — liveness is re-checked at
   delivery time so in-flight messages race with crashes as on a real
   network) but must not forward traffic: we never relax the edges of a
   down vertex other than the source.  Sites of equal distance are settled
   in the order the frontier's sifts give them, which decides between
   routes of equal latency.  Allocates only the row it returns. *)
let dijkstra t src =
  let n = Array.length t.site_states in
  let dist = t.dist and settled = t.settled and frontier = t.frontier in
  Float.Array.fill dist 0 n infinity;
  Bytes.fill settled 0 n '\000';
  let pred = Array.make n (-1) in
  Float.Array.set dist src 0.0;
  Tacoma_util.Heap.clear frontier;
  Tacoma_util.Heap.push frontier 0.0 src;
  while not (Tacoma_util.Heap.is_empty frontier) do
    let u = Tacoma_util.Heap.pop frontier in
    if Bytes.get settled u = '\000' then begin
      (* the first pop of [u] carries its last and smallest push: [dist] *)
      let d = Float.Array.get dist u in
      Bytes.set settled u '\001';
      if t.site_states.(u).up || u = src then begin
        let vs = t.ix.nbr.(u) and lids = t.ix.nbr_link.(u) in
        for i = 0 to Array.length vs - 1 do
          let lid = lids.(i) in
          if not t.disabled.(lid) then begin
            let v = vs.(i) in
            let nd = d +. effective_latency t lid in
            if nd < Float.Array.get dist v then begin
              Float.Array.set dist v nd;
              pred.(v) <- lid;
              Tacoma_util.Heap.push frontier nd v
            end
          end
        done
      end
    end
  done;
  { pred; paths = Array.make n None }

(* the link ids from [src] to [v], walking [pred] back from [v] *)
let rec path_to t src pred v acc =
  if v = src then acc
  else
    let lid = pred.(v) in
    path_to t src pred (if t.ix.lo.(lid) = v then t.ix.hi.(lid) else t.ix.lo.(lid)) (lid :: acc)

(* The route's link ids from [src] to [dst <> src], [None] when unreachable. *)
let route_links t src dst =
  let row =
    match t.route_cache.(src) with
    | row when row != no_row -> row
    | _ ->
      let row = dijkstra t src in
      t.route_cache.(src) <- row;
      row
  in
  if row.pred.(dst) < 0 then None
  else
    match row.paths.(dst) with
    | Some _ as lids -> lids
    | None ->
      let lids = Some (path_to t src row.pred dst []) in
      row.paths.(dst) <- lids;
      lids

let route t src dst =
  let rec sites_after cur = function
    | [] -> []
    | lid :: rest ->
      let next = if t.ix.lo.(lid) = cur then t.ix.hi.(lid) else t.ix.lo.(lid) in
      next :: sites_after next rest
  in
  if src = dst then Some [] else Option.map (sites_after src) (route_links t src dst)

let local_delivery_delay = 0.0001

(* idle-network bound: per link, latency + serialisation; a loop over local
   refs, like [reserve_path], so the sum stays unboxed *)
let path_delay t ~size lids =
  let delay = ref 0.0 and rest = ref lids in
  while
    match !rest with
    | [] -> false
    | lid :: tl ->
      rest := tl;
      delay := !delay +. effective_latency t lid +. (float_of_int size /. effective_bandwidth t lid);
      true
  do
    ()
  done;
  !delay

let link_state t lid =
  match t.links.(lid) with
  | Some ls -> ls
  | None ->
    let labels = [ ("link", Printf.sprintf "%d-%d" t.ix.lo.(lid) t.ix.hi.(lid)) ] in
    let ls =
      {
        link_bytes = Obs.Metrics.counter_handle t.metrics ~labels "net.link.bytes";
        link_wait = Obs.Metrics.histogram_handle t.metrics ~labels "net.link.wait_s";
        busy_until = 0.0;
      }
    in
    t.links.(lid) <- Some ls;
    ls

(* Store-and-forward with FIFO link contention: at each link the message
   first waits until the link has drained earlier traffic, occupies it for
   the serialisation time, then propagates for the latency.  Charges the
   message's bytes to every link, returns the absolute arrival time and
   updates the links' busy horizons.  A loop over local refs, not a
   recursion or a closure, so the running time stays unboxed. *)
let reserve_path t ~size depart lids =
  let arrival = ref depart and rest = ref lids in
  while
    match !rest with
    | [] -> false
    | lid :: tl ->
      rest := tl;
      let ls = link_state t lid in
      Obs.Metrics.bump ls.link_bytes size;
      (* [Float.max] for times, which are never NaN, without its boxing call *)
      let start_tx = if !arrival >= ls.busy_until then !arrival else ls.busy_until in
      (* queue depth at this link, in seconds of backlog ahead of us *)
      Obs.Metrics.record ls.link_wait (start_tx -. !arrival);
      let tx_done = start_tx +. (float_of_int size /. effective_bandwidth t lid) in
      ls.busy_until <- tx_done;
      arrival := tx_done +. effective_latency t lid;
      true
  do
    ()
  done;
  !arrival

(* The probability that a message crossing the links [lids] is lost.  With
   no chaos overrides this is exactly [loss_rate]; a global override window
   replaces it, and per-link elevations compound along the route
   (independent loss on every crossed link). *)
let path_loss_prob t lids =
  let base = match t.loss_override with Some r -> r | None -> t.loss_rate in
  if t.n_lossy = 0 then base
  else
    1.0
    -. List.fold_left
         (fun survive lid ->
           match t.link_loss.(lid) with Some r -> survive *. (1.0 -. r) | None -> survive)
         (1.0 -. base) lids

(* When a route lookup fails, distinguish an administrative partition from
   genuine unreachability: rerun reachability ignoring disabled links (down
   sites still do not forward).  If the destination would be reachable, the
   drop is attributable to the partition. *)
let reachable_ignoring_partition t src dst =
  let n = Array.length t.site_states in
  let visited = Array.make n false in
  let q = Queue.create () in
  visited.(src) <- true;
  Queue.add src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.take q in
    if u = dst then found := true
    else if t.site_states.(u).up || u = src then
      Array.iter
        (fun v ->
          if not visited.(v) then begin
            visited.(v) <- true;
            Queue.add v q
          end)
        t.ix.nbr.(u)
  done;
  !found

let delivery_delay t src dst ~size =
  if src = dst then Some local_delivery_delay
  else
    match route_links t src dst with
    | None -> None
    | Some lids -> Some (path_delay t ~size lids)

(* a top-level recursion, not [List.iter] over a closure holding [msg] *)
let rec run_handlers msg = function
  | [] -> ()
  | (_, h) :: rest ->
    h msg;
    run_handlers msg rest

let deliver t (msg : Message.t) =
  let st = state t msg.dst in
  let tr = recorder t in
  if st.up then begin
    Obs.Metrics.bump t.delivered 1;
    Obs.Metrics.record t.delivery_latency (now t -. msg.sent_at);
    if Obs.Tracer.enabled tr then
      Obs.Tracer.instant_nums tr Obs.Desc.net_deliver ~time:(now t) ~site:msg.dst msg.src
        msg.size (now t -. msg.sent_at) 0.0;
    run_handlers msg st.handlers
  end
  else begin
    Obs.Metrics.incr t.metrics ~labels:[ ("reason", "site-down") ] "net.drops";
    if Obs.Tracer.enabled tr then
      Obs.Tracer.instant_ints tr Obs.Desc.net_drop_site_down ~time:(now t) ~site:msg.dst msg.size
        msg.src 0
  end

let send t ~src ~dst ~size payload =
  if size < 0 then invalid_arg "Net.send: negative size";
  let tr = recorder t in
  if site_up t src then begin
    if src = dst then begin
      Obs.Metrics.bump t.sent 1;
      Obs.Metrics.bump t.bytes_sent size;
      let msg =
        { Message.src; dst; size; payload; sent_at = now t; hops = 0 }
      in
      ignore (Engine.schedule t.engine ~after:local_delivery_delay (fun () -> deliver t msg))
    end
    else
      match route_links t src dst with
      | None ->
        let partitioned = t.n_disabled > 0 && reachable_ignoring_partition t src dst in
        Obs.Metrics.incr t.metrics
          ~labels:[ ("reason", if partitioned then "partition" else "no-route") ]
          "net.drops";
        if Obs.Tracer.enabled tr then
          Obs.Tracer.instant_ints tr
            (if partitioned then Obs.Desc.net_drop_partition else Obs.Desc.net_drop_no_route)
            ~time:(now t) ~site:src dst size 0
      | Some lids ->
        let hops = List.length lids in
        Obs.Metrics.bump t.sent 1;
        Obs.Metrics.bump t.bytes_sent size;
        Obs.Metrics.record t.msg_hops (float_of_int hops);
        if Obs.Tracer.enabled tr then
          Obs.Tracer.instant_ints tr Obs.Desc.net_send ~time:(now t) ~site:src dst size hops;
        let arrival = reserve_path t ~size (now t) lids in
        let loss_prob = path_loss_prob t lids in
        if loss_prob > 0.0 && Rng.float t.loss_rng < loss_prob then begin
          (* lost in transit: the bytes were spent, nothing arrives *)
          ignore
            (Engine.schedule_at t.engine ~at:arrival (fun () ->
                 Obs.Metrics.incr t.metrics ~labels:[ ("reason", "loss") ] "net.drops";
                 if Obs.Tracer.enabled tr then
                   Obs.Tracer.instant_ints tr Obs.Desc.net_drop_loss ~time:(now t) ~site:src dst
                     size 0))
        end
        else begin
          let msg = { Message.src; dst; size; payload; sent_at = now t; hops } in
          ignore (Engine.schedule_at t.engine ~at:arrival (fun () -> deliver t msg))
        end
  end

let crash t s =
  let st = state t s in
  if st.up then begin
    st.up <- false;
    st.handlers <- [];
    invalidate_routes t;
    Obs.Metrics.incr t.metrics "net.crashes";
    if Obs.Tracer.enabled t.recorder then
      Obs.Tracer.instant t.recorder Obs.Desc.net_crash ~time:(now t) ~site:s;
    List.iter (fun hook -> hook ()) (List.rev st.crash_hooks)
  end

let restart t s =
  let st = state t s in
  if not st.up then begin
    st.up <- true;
    invalidate_routes t;
    Obs.Metrics.incr t.metrics "net.restarts";
    if Obs.Tracer.enabled t.recorder then
      Obs.Tracer.instant t.recorder Obs.Desc.net_restart ~time:(now t) ~site:s;
    List.iter (fun hook -> hook ()) (List.rev st.restart_hooks)
  end

let on_crash t s hook =
  let st = state t s in
  st.crash_hooks <- hook :: st.crash_hooks

let on_restart t s hook =
  let st = state t s in
  st.restart_hooks <- hook :: st.restart_hooks

let require_link t a b what =
  let lid = Topology.link_id t.ix a b in
  if lid < 0 then invalid_arg (what ^ ": no such link");
  lid

let set_link_enabled t a b enabled =
  let lid = require_link t a b "Net.set_link_enabled" in
  if t.disabled.(lid) = enabled then begin
    t.disabled.(lid) <- not enabled;
    t.n_disabled <- (t.n_disabled + if enabled then -1 else 1);
    invalidate_routes t
  end

(* Set one link's chaos override; returns the change in the number of
   links that have one. *)
let swap_override arr lid v =
  let delta = Bool.to_int (Option.is_some v) - Bool.to_int (Option.is_some arr.(lid)) in
  arr.(lid) <- v;
  delta

let set_link_loss t a b rate =
  let lid = require_link t a b "Net.set_link_loss" in
  (match rate with
  | Some r when r < 0.0 || r >= 1.0 -> invalid_arg "Net.set_link_loss: rate must be in [0,1)"
  | Some _ | None -> ());
  t.n_lossy <- t.n_lossy + swap_override t.link_loss lid rate

let find_override t arr a b =
  let lid = Topology.link_id t.ix a b in
  if lid < 0 then None else arr.(lid)

let set_loss_override t rate =
  (match rate with
  | Some r when r < 0.0 || r >= 1.0 ->
    invalid_arg "Net.set_loss_override: rate must be in [0,1)"
  | Some _ | None -> ());
  t.loss_override <- rate

let set_link_degraded t a b factors =
  let lid = require_link t a b "Net.set_link_degraded" in
  (match factors with
  | Some (lm, bm) when lm <= 0.0 || bm <= 0.0 ->
    invalid_arg "Net.set_link_degraded: factors must be positive"
  | Some _ | None -> ());
  t.n_degraded <- t.n_degraded + swap_override t.link_degrade lid factors;
  (* degraded latency changes lowest-latency routes *)
  invalidate_routes t

let link_degraded t a b = find_override t t.link_degrade a b

let run ?until t = Engine.run ?until t.engine
let schedule t ?daemon ~after f = Engine.schedule t.engine ?daemon ~after f
