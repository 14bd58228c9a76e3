module Net = Netsim.Net
module Engine = Netsim.Engine

let hb_interval = 0.5 (* heartbeat period, seconds *)
let fail_timeout = 2.0 (* silence before a member is suspected *)
let payload_overhead = 48 (* header bytes charged per protocol message *)

type body =
  | Heartbeat of { from : int }
  | ViewMsg of { view : View.t }
  | JoinReq of { site : int; view_id : int }  (** the joiner's view id *)

type Netsim.Message.payload += Hmsg of { group : string; body : body }

type member = {
  site : int;
  mutable view : View.t;
  mutable known : View.t;
      (* the last view it installed with other members in it: whom it asks
         to readmit it, even after a crash while it was still asking *)
  mutable alive : bool;
  last_heard : (int, float) Hashtbl.t;
  mutable tick_timer : Engine.timer option;
  mutable join_timer : Engine.timer option; (* the next try of a rejoin *)
}

type t = { net : Net.t; gname : string; endpoints : (int, member) Hashtbl.t }

let handler_key t = "horus:" ^ t.gname

let endpoint t site = Hashtbl.find_opt t.endpoints site

let view_at t site =
  match endpoint t site with
  | Some m when m.alive -> Some m.view
  | Some _ | None -> None

let send_body t ~src ~dst ~extra body =
  Net.send t.net ~src ~dst ~size:(payload_overhead + extra) (Hmsg { group = t.gname; body })

let adopt_view t m view =
  if view.View.id > m.view.View.id then begin
    Obs.Metrics.incr (Net.metrics t.net) ~labels:[ ("group", t.gname) ] "horus.view_changes";
    m.view <- view;
    if View.size view > 1 then m.known <- view;
    (* forget suspicion state for departed members *)
    Hashtbl.reset m.last_heard;
    List.iter (fun s -> Hashtbl.replace m.last_heard s (Net.now t.net)) view.View.members
  end

let send_view t m view dst =
  send_body t ~src:m.site ~dst ~extra:(8 * View.size view) (ViewMsg { view })

let broadcast_view t m view =
  List.iter (fun dst -> if dst <> m.site then send_view t m view dst) view.View.members

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
          && now -. Option.value ~default:now (Hashtbl.find_opt m.last_heard s) > fail_timeout)
        m.view.View.members
    in
    if suspected <> [] then begin
      let view = List.fold_left View.without m.view suspected in
      if View.coordinator view = Some m.site then begin
        (let tr = Net.recorder t.net in
         if Obs.Tracer.enabled tr then
           let suspects = String.concat "," (List.map string_of_int suspected) in
           Obs.Tracer.instant_strs tr Obs.Desc.horus_view ~time:now ~span:Obs.Span.null
             ~site:m.site ~agent:"" t.gname suspects view.View.id 0);
        adopt_view t m view;
        broadcast_view t m view
      end
    end;
    m.tick_timer <- Some (Net.schedule t.net ~after:hb_interval (fun () -> tick t m))
  end

(* --- incoming message handling ------------------------------------------- *)

let handle t m (msg : Netsim.Message.t) =
  match msg.payload with
  | Hmsg { group; body } when group = t.gname && m.alive -> (
    Hashtbl.replace m.last_heard msg.src (Net.now t.net);
    match body with
    | Heartbeat { from = _ } -> ()
    | ViewMsg { view } -> adopt_view t m view
    | JoinReq { site; view_id } when View.coordinator m.view = Some m.site ->
      (* a joiner already in the view lost the view that admitted it and
         retried: send it the current view again, unless it has since
         installed a view of its own that this one would not replace *)
      if View.mem m.view site && view_id <= m.view.View.id then send_view t m m.view site
      else begin
        (* the admitting view outranks the joiner's own *)
        let base = View.make ~id:(max m.view.View.id view_id) ~members:m.view.View.members in
        let view = View.with_member base site in
        adopt_view t m view;
        broadcast_view t m view
      end
    | JoinReq { site; view_id } -> (
      (* not the coordinator: pass the request on to ours *)
      match View.coordinator m.view with
      | Some c when c <> site && c <> msg.src ->
        send_body t ~src:m.site ~dst:c ~extra:0 (JoinReq { site; view_id })
      | Some _ | None -> ()))
  | Hmsg _ | _ -> ()

let arm_endpoint t m =
  m.alive <- true;
  Net.set_handler t.net m.site ~key:(handler_key t) (fun msg -> handle t m msg);
  (match m.tick_timer with Some timer -> Engine.cancel timer | None -> ());
  m.tick_timer <- Some (Net.schedule t.net ~after:hb_interval (fun () -> tick t m))

let make_member t site view =
  let m =
    {
      site;
      view;
      known = view;
      alive = false;
      last_heard = Hashtbl.create 8;
      tick_timer = None;
      join_timer = None;
    }
  in
  Hashtbl.replace t.endpoints site m;
  Net.on_crash t.net site (fun () ->
      m.alive <- false;
      Option.iter Engine.cancel m.tick_timer;
      Option.iter Engine.cancel m.join_timer);
  m

let create net ~name ~members =
  if members = [] then invalid_arg "Group.create: empty membership";
  List.iter
    (fun s -> if not (Net.site_up net s) then invalid_arg "Group.create: member is down")
    members;
  let view = View.make ~id:1 ~members in
  let t = { net; gname = name; endpoints = Hashtbl.create 8 } in
  List.iter
    (fun site ->
      let m = make_member t site view in
      arm_endpoint t m;
      List.iter (fun s -> Hashtbl.replace m.last_heard s (Net.now net)) members)
    members;
  t

let rejoin t site =
  if Net.site_up t.net site then begin
    let m =
      match endpoint t site with
      | Some m -> m
      | None -> make_member t site (View.make ~id:0 ~members:[ site ])
    in
    (* all the site knows of the group is the last view it held with others;
       its identity is stale, so the ViewMsg that admits it brings the
       current view *)
    let last = m.known in
    let others = Array.of_list (List.filter (fun s -> s <> site) last.View.members) in
    m.view <- View.make ~id:0 ~members:[ site ];
    arm_endpoint t m;
    (* A single JoinReq can be lost, or its target can be down: ask the
       other members of [last] in rank order, one per try, until admitted
       (a member that is not the coordinator forwards the request to its
       own).  If nobody answers, the site installs a singleton view
       ([alone]) but keeps asking, so it merges back once its links heal. *)
    let admitted () = m.view.View.id > 0 && View.mem m.view site in
    let singleton () =
      let view = View.make ~id:(last.View.id + 1) ~members:[ site ] in
      adopt_view t m view;
      view
    in
    let alone = ref None in
    let waiting () =
      (not (admitted ())) || match !alone with Some v -> m.view == v | None -> false
    in
    let max_join_attempts = 10 in
    let rec try_join attempts =
      (* a crash cancels [m.join_timer], so only a live incarnation tries *)
      if waiting () then begin
        if attempts >= max_join_attempts && not (admitted ()) then alone := Some (singleton ());
        if others = [||] then ignore (singleton ())
        else begin
          let dst = others.(attempts mod Array.length others) in
          send_body t ~src:site ~dst ~extra:0 (JoinReq { site; view_id = m.view.View.id });
          let retry () = try_join (attempts + 1) in
          m.join_timer <- Some (Net.schedule t.net ~after:(2.0 *. hb_interval) retry)
        end
      end
    in
    try_join 0
  end
