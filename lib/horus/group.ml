module Net = Netsim.Net
module Engine = Netsim.Engine

type config = { hb_interval : float; fail_timeout : float; payload_overhead : int }

let default_config = { hb_interval = 0.5; fail_timeout = 2.0; payload_overhead = 48 }

type body =
  | Data of { sender : int; seq : int; data : string }
  | OrderReq of { sender : int; data : string }
  | Ordered of { gseq : int; sender : int; data : string }
  | Heartbeat of { from : int }
  | ViewMsg of { view : View.t }
  | JoinReq of { site : int }
  | StateMsg of { view : View.t; state : string; next_gseq : int }

type Netsim.Message.payload += Hmsg of { group : string; body : body }

type member = {
  site : int;
  mutable view : View.t;
  mutable alive : bool;
  mutable send_seq : int;
  next_from : (int, int) Hashtbl.t;
  holdback : (int * int, string) Hashtbl.t;
  mutable gseq_next : int;
  ghold : (int, int * string) Hashtbl.t;
  mutable gseq_counter : int; (* used while coordinator *)
  last_heard : (int, float) Hashtbl.t;
  mutable deliver_cb : (sender:int -> string -> unit) option;
  mutable view_cb : (View.t -> unit) option;
  mutable state_provider : (unit -> string) option;
  mutable state_cb : (string -> unit) option;
  mutable tick_timer : Engine.timer option;
}

type t = {
  net : Net.t;
  gname : string;
  config : config;
  endpoints : (int, member) Hashtbl.t;
  mutable latest_view : View.t;
}

let name t = t.gname
let handler_key t = "horus:" ^ t.gname

let endpoint t site = Hashtbl.find_opt t.endpoints site

let view_at t site =
  match endpoint t site with
  | Some m when m.alive -> Some m.view
  | Some _ | None -> None

let member_sites t =
  Hashtbl.fold (fun site m acc -> if m.alive then site :: acc else acc) t.endpoints []
  |> List.sort compare

let on_deliver t site cb =
  match endpoint t site with
  | Some m -> m.deliver_cb <- Some (fun ~sender data -> cb ~sender data)
  | None -> invalid_arg "Group.on_deliver: not a member"

let on_view t site cb =
  match endpoint t site with
  | Some m -> m.view_cb <- Some cb
  | None -> invalid_arg "Group.on_view: not a member"

let set_state_provider t site f =
  match endpoint t site with
  | Some m -> m.state_provider <- Some f
  | None -> invalid_arg "Group.set_state_provider: not a member"

let on_state t site cb =
  match endpoint t site with
  | Some m -> m.state_cb <- Some cb
  | None -> invalid_arg "Group.on_state: not a member"

let send_body t ~src ~dst ~extra body =
  Net.send t.net ~src ~dst ~size:(t.config.payload_overhead + extra)
    (Hmsg { group = t.gname; body })

(* --- delivery machinery -------------------------------------------------- *)

let deliver m ~sender data =
  match m.deliver_cb with None -> () | Some cb -> cb ~sender data

(* FIFO per-sender: deliver in-sequence, hold back gaps. *)
let handle_data m ~sender ~seq data =
  let expected = Option.value ~default:0 (Hashtbl.find_opt m.next_from sender) in
  if seq < expected then () (* duplicate *)
  else begin
    Hashtbl.replace m.holdback (sender, seq) data;
    let rec flush n =
      match Hashtbl.find_opt m.holdback (sender, n) with
      | None -> Hashtbl.replace m.next_from sender n
      | Some d ->
        Hashtbl.remove m.holdback (sender, n);
        deliver m ~sender d;
        flush (n + 1)
    in
    flush expected
  end

(* Total order: deliver in global-sequence order.  Note: across coordinator
   failures the order is best-effort — real Horus runs a flush protocol on
   view change; our experiments only require agreement under stable views. *)
let handle_ordered m ~gseq ~sender data =
  if gseq < m.gseq_next then ()
  else begin
    Hashtbl.replace m.ghold gseq (sender, data);
    let rec flush n =
      match Hashtbl.find_opt m.ghold n with
      | None -> m.gseq_next <- n
      | Some (s, d) ->
        Hashtbl.remove m.ghold n;
        deliver m ~sender:s d;
        flush (n + 1)
    in
    flush m.gseq_next
  end

let adopt_view t m view =
  if view.View.id > m.view.View.id then begin
    Obs.Metrics.incr (Net.metrics t.net) ~labels:[ ("group", t.gname) ] "horus.view_changes";
    m.view <- view;
    if view.View.id > t.latest_view.View.id then t.latest_view <- view;
    (* forget suspicion state for departed members *)
    Hashtbl.reset m.last_heard;
    List.iter (fun s -> Hashtbl.replace m.last_heard s (Net.now t.net)) view.View.members;
    match m.view_cb with None -> () | Some cb -> cb view
  end

let broadcast_view t m view =
  List.iter
    (fun dst -> if dst <> m.site then send_body t ~src:m.site ~dst ~extra:(8 * View.size view) (ViewMsg { view }))
    view.View.members

(* --- heartbeating and failure detection ---------------------------------- *)

(* All-to-all heartbeating.  Every member heartbeats every other member and
   tracks last-heard times; a member installs a new view excluding its
   suspects exactly when it would be the coordinator of that view — i.e.
   the lowest-ranked live member acts, which handles the coordinator and
   its successors dying together.  Competing installs are resolved by view
   id (adopt_view keeps the highest). *)
let rec tick t m =
  if m.alive && Net.site_up t.net m.site then begin
    let now = Net.now t.net in
    List.iter
      (fun dst ->
        if dst <> m.site then begin
          Obs.Metrics.incr (Net.metrics t.net) ~labels:[ ("group", t.gname) ] "horus.heartbeats";
          send_body t ~src:m.site ~dst ~extra:0 (Heartbeat { from = m.site })
        end)
      m.view.View.members;
    let suspected =
      List.filter
        (fun s ->
          s <> m.site
          && now -. Option.value ~default:now (Hashtbl.find_opt m.last_heard s)
             > t.config.fail_timeout)
        m.view.View.members
    in
    if suspected <> [] then begin
      let view = List.fold_left View.without m.view suspected in
      if View.coordinator view = Some m.site then begin
        (let tr = Net.recorder t.net in
         if Obs.Tracer.enabled tr then
           let suspects = String.concat "," (List.map string_of_int suspected) in
           Obs.Tracer.instant tr ~time:now ~cat:"horus" ~site:m.site
             ~attrs:
               [
                 ("group", Obs.Event.S t.gname);
                 ("suspects", Obs.Event.S suspects);
                 ("view", Obs.Event.I view.View.id);
               ]
             "horus.view");
        adopt_view t m view;
        broadcast_view t m view
      end
    end;
    m.tick_timer <-
      Some (Net.schedule t.net ~after:t.config.hb_interval (fun () -> tick t m))
  end

(* --- incoming message handling ------------------------------------------- *)

let handle t m (msg : Netsim.Message.t) =
  match msg.payload with
  | Hmsg { group; body } when group = t.gname && m.alive ->
    Hashtbl.replace m.last_heard msg.src (Net.now t.net);
    (match body with
    | Data { sender; seq; data } -> handle_data m ~sender ~seq data
    | Ordered { gseq; sender; data } -> handle_ordered m ~gseq ~sender data
    | OrderReq { sender; data } ->
      (* only the coordinator sequences *)
      if View.coordinator m.view = Some m.site then begin
        let gseq = m.gseq_counter in
        m.gseq_counter <- gseq + 1;
        List.iter
          (fun dst ->
            send_body t ~src:m.site ~dst ~extra:(String.length data)
              (Ordered { gseq; sender; data }))
          m.view.View.members
      end
    | Heartbeat { from = _ } -> ()
    | ViewMsg { view } -> adopt_view t m view
    | JoinReq { site } ->
      if View.coordinator m.view = Some m.site && not (View.mem m.view site) then begin
        let view = View.with_member m.view site in
        adopt_view t m view;
        broadcast_view t m view;
        let state =
          match m.state_provider with None -> "" | Some f -> f ()
        in
        send_body t ~src:m.site ~dst:site ~extra:(String.length state)
          (StateMsg { view; state; next_gseq = m.gseq_counter })
      end
    | StateMsg { view; state; next_gseq } ->
      Hashtbl.reset m.next_from;
      Hashtbl.reset m.holdback;
      Hashtbl.reset m.ghold;
      m.gseq_next <- next_gseq;
      m.gseq_counter <- next_gseq;
      adopt_view t m view;
      (match m.state_cb with None -> () | Some cb -> cb state))
  | Hmsg _ | _ -> ()

let arm_endpoint t m =
  m.alive <- true;
  Net.set_handler t.net m.site ~key:(handler_key t) (fun msg -> handle t m msg);
  (match m.tick_timer with Some timer -> Engine.cancel timer | None -> ());
  m.tick_timer <- Some (Net.schedule t.net ~after:t.config.hb_interval (fun () -> tick t m))

let make_member t site view =
  let m =
    {
      site;
      view;
      alive = false;
      send_seq = 0;
      next_from = Hashtbl.create 8;
      holdback = Hashtbl.create 8;
      gseq_next = 0;
      ghold = Hashtbl.create 8;
      gseq_counter = 0;
      last_heard = Hashtbl.create 8;
      deliver_cb = None;
      view_cb = None;
      state_provider = None;
      state_cb = None;
      tick_timer = None;
    }
  in
  Hashtbl.replace t.endpoints site m;
  Net.on_crash t.net site (fun () ->
      m.alive <- false;
      match m.tick_timer with
      | Some timer ->
        Engine.cancel timer;
        m.tick_timer <- None
      | None -> ());
  m

let create ?(config = default_config) net ~name ~members =
  if members = [] then invalid_arg "Group.create: empty membership";
  List.iter
    (fun s -> if not (Net.site_up net s) then invalid_arg "Group.create: member is down")
    members;
  let view = View.make ~id:1 ~members in
  let t = { net; gname = name; config; endpoints = Hashtbl.create 8; latest_view = view } in
  List.iter
    (fun site ->
      let m = make_member t site view in
      arm_endpoint t m;
      List.iter (fun s -> Hashtbl.replace m.last_heard s (Net.now net)) members)
    members;
  t

let mcast t ~from ?(total = false) data =
  match endpoint t from with
  | Some m when m.alive && Net.site_up t.net from ->
    if total then begin
      match View.coordinator m.view with
      | Some c ->
        send_body t ~src:from ~dst:c ~extra:(String.length data) (OrderReq { sender = from; data })
      | None -> ()
    end
    else begin
      let seq = m.send_seq in
      m.send_seq <- seq + 1;
      List.iter
        (fun dst ->
          send_body t ~src:from ~dst ~extra:(String.length data)
            (Data { sender = from; seq; data }))
        m.view.View.members
    end
  | Some _ | None -> ()

let rejoin t site =
  if Net.site_up t.net site then begin
    let m =
      match endpoint t site with
      | Some m -> m
      | None -> make_member t site (View.make ~id:0 ~members:[ site ])
    in
    (* stale identity: wipe per-stream state, it will be refreshed by the
       coordinator's StateMsg *)
    Hashtbl.reset m.next_from;
    Hashtbl.reset m.holdback;
    Hashtbl.reset m.ghold;
    m.view <- View.make ~id:0 ~members:[ site ];
    arm_endpoint t m;
    (* a single JoinReq can be lost, or the believed coordinator can itself
       be down: retry until admitted, falling back to a singleton view if
       nobody answers *)
    let admitted () = m.view.View.id > 0 && View.mem m.view site in
    let singleton () =
      adopt_view t m (View.make ~id:(t.latest_view.View.id + 1) ~members:[ site ])
    in
    let max_join_attempts = 10 in
    let rec try_join attempts =
      if m.alive && Net.site_up t.net site && not (admitted ()) then begin
        if attempts >= max_join_attempts then singleton ()
        else begin
          (match View.coordinator t.latest_view with
          | Some c when c <> site -> send_body t ~src:site ~dst:c ~extra:0 (JoinReq { site })
          | Some _ | None -> singleton ());
          ignore
            (Net.schedule t.net ~after:(2.0 *. t.config.hb_interval) (fun () ->
                 try_join (attempts + 1)))
        end
      end
    in
    try_join 0
  end
