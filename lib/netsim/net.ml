module Rng = Tacoma_util.Rng

type site_state = {
  mutable up : bool;
  mutable handlers : (string * (Message.t -> unit)) list;
  mutable crash_hooks : (unit -> unit) list;
  mutable restart_hooks : (unit -> unit) list;
}

type t = {
  engine : Engine.t;
  topo : Topology.t;
  rng : Rng.t;
  loss_rng : Rng.t;
  loss_rate : float;
  stats : Netstats.t;
  recorder : Obs.Tracer.t;
  metrics : Obs.Metrics.t;
  site_states : site_state array;
  disabled_links : (int * int, unit) Hashtbl.t;
  link_loss : (int * int, float) Hashtbl.t; (* chaos: extra per-link loss *)
  link_degrade : (int * int, float * float) Hashtbl.t;
      (* chaos: (latency multiplier, bandwidth multiplier) per link *)
  mutable loss_override : float option; (* chaos: window replacing loss_rate *)
  link_busy_until : (int * int, float) Hashtbl.t; (* FIFO serialisation per link *)
  mutable generation : int; (* bumped on any reachability change *)
  route_cache : (int, (float * int list) option array * int) Hashtbl.t;
      (* src -> (per-dst delay/path, generation) *)
}

let create ?(seed = 42L) ?(trace = false) ?(loss_rate = 0.0) topo =
  if loss_rate < 0.0 || loss_rate >= 1.0 then invalid_arg "Net.create: loss_rate must be in [0,1)";
  let n = Topology.site_count topo in
  let rng = Rng.create seed in
  let metrics = Obs.Metrics.create () in
  {
    engine = Engine.create ~metrics ();
    topo;
    loss_rng = Rng.split rng;
    loss_rate;
    rng;
    stats = Netstats.create ();
    recorder = Obs.Tracer.create ~enabled:trace ();
    metrics;
    site_states =
      Array.init n (fun _ ->
          { up = true; handlers = []; crash_hooks = []; restart_hooks = [] });
    disabled_links = Hashtbl.create 8;
    link_loss = Hashtbl.create 8;
    link_degrade = Hashtbl.create 8;
    loss_override = None;
    link_busy_until = Hashtbl.create 64;
    generation = 0;
    route_cache = Hashtbl.create 16;
  }

let engine t = t.engine
let topology t = t.topo
let now t = Engine.now t.engine
let rng t = t.rng
let stats t = t.stats
let recorder t = t.recorder
let metrics t = t.metrics
let sites t = Topology.sites t.topo
let neighbors t s = Topology.neighbors t.topo s

let state t s =
  if s < 0 || s >= Array.length t.site_states then invalid_arg "Net: unknown site";
  t.site_states.(s)

let set_handler t s ~key h =
  let st = state t s in
  st.handlers <- (key, h) :: List.remove_assoc key st.handlers

let clear_handler t s ~key =
  let st = state t s in
  st.handlers <- List.remove_assoc key st.handlers
let site_up t s = (state t s).up

let key a b = if a < b then (a, b) else (b, a)

(* Any reachability change invalidates every cached route at once.  Clear
   the rows eagerly: stale-generation rows would otherwise sit in the table
   until the same source happens to route again, so a long chaos run that
   churns links grows the cache without bound. *)
let bump_generation t =
  t.generation <- t.generation + 1;
  Hashtbl.reset t.route_cache

let route_cache_size t = Hashtbl.length t.route_cache

let link_enabled t a b = not (Hashtbl.mem t.disabled_links (key a b))

(* Chaos degradation windows scale a link's parameters without touching the
   topology itself: latency is multiplied, bandwidth is multiplied (a factor
   below 1.0 slows the link down). *)
let effective_latency t a b (l : Topology.link) =
  match Hashtbl.find_opt t.link_degrade (key a b) with
  | None -> l.latency
  | Some (lm, _) -> l.latency *. lm

let effective_bandwidth t a b (l : Topology.link) =
  match Hashtbl.find_opt t.link_degrade (key a b) with
  | None -> l.bandwidth
  | Some (_, bm) -> l.bandwidth *. bm

(* Dijkstra over latency, skipping disabled links.  A down site may be
   reached (it can be a message destination — liveness is re-checked at
   delivery time so in-flight messages race with crashes as on a real
   network) but must not forward traffic: we never relax the edges of a
   down vertex other than the source. *)
let dijkstra t src =
  let n = Topology.site_count t.topo in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let visited = Array.make n false in
  dist.(src) <- 0.0;
  let heap = Tacoma_util.Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) ~dummy:(0.0, 0) in
  Tacoma_util.Heap.push heap (0.0, src);
  let rec loop () =
    match Tacoma_util.Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
      if not visited.(u) then begin
        visited.(u) <- true;
        if (state t u).up || u = src then
          List.iter
            (fun v ->
              if link_enabled t u v then
                match Topology.link t.topo u v with
                | None -> ()
                | Some l ->
                  let nd = d +. effective_latency t u v l in
                  if nd < dist.(v) then begin
                    dist.(v) <- nd;
                    prev.(v) <- u;
                    Tacoma_util.Heap.push heap (nd, v)
                  end)
            (Topology.neighbors t.topo u)
      end;
      loop ()
  in
  loop ();
  let path_to dst =
    if dist.(dst) = infinity then None
    else begin
      let rec build acc v = if v = src then acc else build (v :: acc) prev.(v) in
      Some (dist.(dst), build [] dst)
    end
  in
  Array.init n path_to

let routes_from t src =
  match Hashtbl.find_opt t.route_cache src with
  | Some (arr, gen) when gen = t.generation -> arr
  | Some _ | None ->
    let arr = dijkstra t src in
    Hashtbl.replace t.route_cache src (arr, t.generation);
    arr

let route t src dst =
  if src = dst then Some []
  else match (routes_from t src).(dst) with None -> None | Some (_, path) -> Some path

let local_delivery_delay = 0.0001

let path_delay t ~size src path =
  (* idle-network bound: per link, latency + serialisation *)
  let rec go acc prev_site = function
    | [] -> acc
    | hop :: rest ->
      let l =
        match Topology.link t.topo prev_site hop with
        | Some l -> l
        | None -> assert false
      in
      go
        (acc
        +. effective_latency t prev_site hop l
        +. (float_of_int size /. effective_bandwidth t prev_site hop l))
        hop rest
  in
  go 0.0 src path

(* Store-and-forward with FIFO link contention: at each link the message
   first waits until the link has drained earlier traffic, occupies it for
   the serialisation time, then propagates for the latency.  Returns the
   absolute arrival time and updates the links' busy horizons. *)
let link_label a b =
  let a, b = if a < b then (a, b) else (b, a) in
  Printf.sprintf "%d-%d" a b

let reserve_path t ~size src path =
  let now = Engine.now t.engine in
  let rec go arrival prev_site = function
    | [] -> arrival
    | hop :: rest ->
      let l =
        match Topology.link t.topo prev_site hop with
        | Some l -> l
        | None -> assert false
      in
      let k = key prev_site hop in
      let free_at = Option.value ~default:0.0 (Hashtbl.find_opt t.link_busy_until k) in
      let start_tx = Float.max arrival free_at in
      (* queue depth at this link, in seconds of backlog ahead of us *)
      Obs.Metrics.observe t.metrics
        ~labels:[ ("link", link_label prev_site hop) ]
        "net.link.wait_s" (start_tx -. arrival);
      let tx_done = start_tx +. (float_of_int size /. effective_bandwidth t prev_site hop l) in
      Hashtbl.replace t.link_busy_until k tx_done;
      go (tx_done +. effective_latency t prev_site hop l) hop rest
  in
  go now src path

(* The probability that a message following [path] is lost.  With no chaos
   overrides this is exactly [loss_rate]; a global override window replaces
   it, and per-link elevations compound along the route (independent loss on
   every crossed link). *)
let path_loss_prob t src path =
  let base = match t.loss_override with Some r -> r | None -> t.loss_rate in
  if Hashtbl.length t.link_loss = 0 then base
  else begin
    let survive = ref (1.0 -. base) in
    let prev = ref src in
    List.iter
      (fun hop ->
        (match Hashtbl.find_opt t.link_loss (key !prev hop) with
        | Some r -> survive := !survive *. (1.0 -. r)
        | None -> ());
        prev := hop)
      path;
    1.0 -. !survive
  end

(* When a route lookup fails, distinguish an administrative partition from
   genuine unreachability: rerun reachability ignoring disabled links (down
   sites still do not forward).  If the destination would be reachable, the
   drop is attributable to the partition. *)
let reachable_ignoring_partition t src dst =
  let n = Topology.site_count t.topo in
  let visited = Array.make n false in
  let q = Queue.create () in
  visited.(src) <- true;
  Queue.add src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.take q in
    if u = dst then found := true
    else if (state t u).up || u = src then
      List.iter
        (fun v ->
          if not visited.(v) then begin
            visited.(v) <- true;
            Queue.add v q
          end)
        (Topology.neighbors t.topo u)
  done;
  !found

let delivery_delay t src dst ~size =
  if src = dst then Some local_delivery_delay
  else
    match route t src dst with
    | None -> None
    | Some path -> Some (path_delay t ~size src path)

let deliver t (msg : Message.t) =
  let st = state t msg.dst in
  let tr = recorder t in
  if st.up then begin
    Netstats.record_delivery t.stats;
    Obs.Metrics.incr t.metrics "net.delivered";
    Obs.Metrics.observe t.metrics "net.delivery_latency_s" (now t -. msg.sent_at);
    if Obs.Tracer.enabled tr then
      Obs.Tracer.instant tr ~time:(now t) ~cat:"net" ~site:msg.dst
        ~attrs:
          [
            ("src", Obs.Event.I msg.src);
            ("bytes", Obs.Event.I msg.size);
            ("latency", Obs.Event.F (now t -. msg.sent_at));
          ]
        "net.deliver";
    List.iter (fun (_, h) -> h msg) (List.rev st.handlers)
  end
  else begin
    Netstats.record_drop t.stats;
    Obs.Metrics.incr t.metrics ~labels:[ ("reason", "site-down") ] "net.drops";
    if Obs.Tracer.enabled tr then
      Obs.Tracer.instant tr ~time:(now t) ~cat:"net" ~site:msg.dst
        ~msg:(Printf.sprintf "site-%d down, dropped %d bytes from site-%d" msg.dst msg.size msg.src)
        ~attrs:[ ("reason", Obs.Event.S "site-down") ]
        "net.drop"
  end

let send t ~src ~dst ~size payload =
  if size < 0 then invalid_arg "Net.send: negative size";
  let tr = recorder t in
  if site_up t src then begin
    if src = dst then begin
      Netstats.record_send t.stats ~bytes:size ~hops:0;
      Obs.Metrics.incr t.metrics "net.sent";
      let msg =
        { Message.src; dst; size; payload; sent_at = now t; hops = 0 }
      in
      ignore (Engine.schedule t.engine ~after:local_delivery_delay (fun () -> deliver t msg))
    end
    else
      match route t src dst with
      | None ->
        let reason =
          if Hashtbl.length t.disabled_links > 0 && reachable_ignoring_partition t src dst then
            "partition"
          else "no-route"
        in
        Netstats.record_drop t.stats;
        Obs.Metrics.incr t.metrics ~labels:[ ("reason", reason) ] "net.drops";
        if Obs.Tracer.enabled tr then
          Obs.Tracer.instant tr ~time:(now t) ~cat:"net" ~site:src
            ~msg:(Printf.sprintf "%s site-%d -> site-%d (%d bytes)" reason src dst size)
            ~attrs:[ ("reason", Obs.Event.S reason); ("dst", Obs.Event.I dst) ]
            "net.drop"
      | Some path ->
        let hops = List.length path in
        Netstats.record_send t.stats ~bytes:size ~hops;
        Obs.Metrics.incr t.metrics "net.sent";
        Obs.Metrics.observe t.metrics "net.msg_hops" (float_of_int hops);
        let rec charge prev_site = function
          | [] -> ()
          | hop :: rest ->
            Netstats.record_link_bytes t.stats prev_site hop size;
            Obs.Metrics.incr t.metrics
              ~labels:[ ("link", link_label prev_site hop) ]
              ~by:size "net.link.bytes";
            charge hop rest
        in
        charge src path;
        if Obs.Tracer.enabled tr then
          Obs.Tracer.instant tr ~time:(now t) ~cat:"net" ~site:src
            ~attrs:
              [
                ("dst", Obs.Event.I dst);
                ("bytes", Obs.Event.I size);
                ("hops", Obs.Event.I hops);
              ]
            "net.send";
        let arrival = reserve_path t ~size src path in
        let loss_prob = path_loss_prob t src path in
        if loss_prob > 0.0 && Rng.float t.loss_rng < loss_prob then begin
          (* lost in transit: the bytes were spent, nothing arrives *)
          ignore
            (Engine.schedule_at t.engine ~at:arrival (fun () ->
                 Netstats.record_drop t.stats;
                 Obs.Metrics.incr t.metrics ~labels:[ ("reason", "loss") ] "net.drops";
                 if Obs.Tracer.enabled tr then
                   Obs.Tracer.instant tr ~time:(now t) ~cat:"net" ~site:src
                     ~msg:
                       (Printf.sprintf "lost in transit site-%d -> site-%d (%d bytes)" src
                          dst size)
                     ~attrs:[ ("reason", Obs.Event.S "loss"); ("dst", Obs.Event.I dst) ]
                     "net.drop"))
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
    bump_generation t;
    Obs.Metrics.incr t.metrics "net.crashes";
    if Obs.Tracer.enabled t.recorder then
      Obs.Tracer.instant t.recorder ~time:(now t) ~cat:"net" ~site:s "net.crash";
    List.iter (fun hook -> hook ()) (List.rev st.crash_hooks)
  end

let restart t s =
  let st = state t s in
  if not st.up then begin
    st.up <- true;
    bump_generation t;
    Obs.Metrics.incr t.metrics "net.restarts";
    if Obs.Tracer.enabled t.recorder then
      Obs.Tracer.instant t.recorder ~time:(now t) ~cat:"net" ~site:s "net.restart";
    List.iter (fun hook -> hook ()) (List.rev st.restart_hooks)
  end

let on_crash t s hook =
  let st = state t s in
  st.crash_hooks <- hook :: st.crash_hooks

let on_restart t s hook =
  let st = state t s in
  st.restart_hooks <- hook :: st.restart_hooks

let set_link_enabled t a b enabled =
  (match Topology.link t.topo a b with
  | None -> invalid_arg "Net.set_link_enabled: no such link"
  | Some _ -> ());
  let k = key a b in
  let changed =
    if enabled then Hashtbl.mem t.disabled_links k
    else not (Hashtbl.mem t.disabled_links k)
  in
  if changed then begin
    if enabled then Hashtbl.remove t.disabled_links k else Hashtbl.replace t.disabled_links k ();
    bump_generation t
  end

let require_link t a b what =
  match Topology.link t.topo a b with
  | None -> invalid_arg (what ^ ": no such link")
  | Some _ -> ()

let set_link_loss t a b rate =
  require_link t a b "Net.set_link_loss";
  match rate with
  | None -> Hashtbl.remove t.link_loss (key a b)
  | Some r ->
    if r < 0.0 || r >= 1.0 then invalid_arg "Net.set_link_loss: rate must be in [0,1)";
    Hashtbl.replace t.link_loss (key a b) r

let link_loss t a b = Hashtbl.find_opt t.link_loss (key a b)

let set_loss_override t rate =
  (match rate with
  | Some r when r < 0.0 || r >= 1.0 ->
    invalid_arg "Net.set_loss_override: rate must be in [0,1)"
  | Some _ | None -> ());
  t.loss_override <- rate

let loss_override t = t.loss_override

let set_link_degraded t a b factors =
  require_link t a b "Net.set_link_degraded";
  let k = key a b in
  (match factors with
  | None -> Hashtbl.remove t.link_degrade k
  | Some (lm, bm) ->
    if lm <= 0.0 || bm <= 0.0 then
      invalid_arg "Net.set_link_degraded: factors must be positive";
    Hashtbl.replace t.link_degrade k (lm, bm));
  (* degraded latency changes lowest-latency routes *)
  bump_generation t

let link_degraded t a b = Hashtbl.find_opt t.link_degrade (key a b)

let run ?until t = Engine.run ?until t.engine
let schedule t ~after f = Engine.schedule t.engine ~after f
