module Kernel = Tacoma_core.Kernel
module Net = Netsim.Net
module Topology = Netsim.Topology
module Rng = Tacoma_util.Rng
module Weather = Apps.Weather
module Stormcast = Apps.Stormcast
module Agentmail = Apps.Agentmail

type stormcast_row = {
  architecture : string;
  bytes_moved : int;
  readings_moved : int;
  completion_s : float;
  hit_rate : float;
  false_alarm_rate : float;
}

type mail_row = { scenario : string; sent : int; delivered : int; extra : string }

let run_stormcast ?(stations = 8) ?(hours = 168) () =
  let field = Weather.generate ~rng:(Rng.create 4242L) ~stations ~hours ~storm_count:3 () in
  let sensors = List.init stations (fun i -> i + 1) in
  let score o =
    let hit = ref 0.0 and fa = ref 0.0 in
    Stormcast.score field o.Stormcast.predictions ~hit_rate:hit ~false_alarm_rate:fa;
    (!hit, !fa)
  in
  (* agent architecture *)
  let net_a = Net.create (Topology.star stations) in
  let k = Kernel.create net_a in
  Stormcast.load_sensor_data k ~sites:sensors field;
  let agent_out = ref None in
  Stormcast.run_agent_collector k ~sensor_sites:sensors ~centre:0 ~on_done:(fun o ->
      agent_out := Some o);
  Net.run ~until:600.0 net_a;
  (* client/server architecture *)
  let net_c = Net.create (Topology.star stations) in
  let cs_out = ref None in
  Stormcast.run_client_server net_c ~field ~sensor_sites:sensors ~centre:0
    ~on_done:(fun o -> cs_out := Some o);
  Net.run ~until:600.0 net_c;
  match (!agent_out, !cs_out) with
  | Some a, Some c ->
    let mk name (o : Stormcast.outcome) =
      let hit, fa = score o in
      {
        architecture = name;
        bytes_moved = o.Stormcast.bytes_moved;
        readings_moved = o.Stormcast.readings_moved;
        completion_s = o.Stormcast.finished_at;
        hit_rate = hit;
        false_alarm_rate = fa;
      }
    in
    [ mk "agent" a; mk "client/server" c ]
  | _ -> failwith "E8: stormcast run did not finish"

let run_mail () =
  let mk_world () =
    let net = Net.create (Topology.full_mesh 6) in
    let k = Kernel.create net in
    Agentmail.setup k;
    let users = [ "u0"; "u1"; "u2"; "u3"; "u4"; "u5" ] in
    List.iteri (fun i u -> Agentmail.register_user k ~user:u ~home:i) users;
    (net, k, users)
  in
  (* scenario 1: burst on a healthy network *)
  let net, k, users = mk_world () in
  let rng = Rng.create 77L in
  let sent = 40 in
  for _ = 1 to sent do
    let from_user = Rng.pick_list rng users in
    let to_user = Rng.pick_list rng users in
    Agentmail.send k ~src:0 ~from_user ~to_user ~subject:"s" ~body:"b"
  done;
  Net.run ~until:120.0 net;
  let delivered =
    List.fold_left (fun acc u -> acc + List.length (Agentmail.mailbox k ~user:u)) 0 users
  in
  let healthy = { scenario = "healthy burst"; sent; delivered; extra = "exactly-once" } in
  (* scenario 2: same burst with crashing homes *)
  let net, k, users = mk_world () in
  let rng = Rng.create 77L in
  let plan =
    Netsim.Chaos.crashes ~rng:(Rng.create 5L) ~sites:(List.init 6 Fun.id) ~rate:0.02
      ~mean_downtime:5.0 ~until:60.0
  in
  Netsim.Chaos.apply net plan;
  let t = ref 0.0 in
  for _ = 1 to sent do
    t := !t +. 1.0;
    let from_user = Rng.pick_list rng users in
    let to_user = Rng.pick_list rng users in
    ignore
      (Net.schedule net ~after:!t (fun () ->
           if Net.site_up net 0 then
             Agentmail.send k ~src:0 ~from_user ~to_user ~subject:"s" ~body:"b"))
  done;
  Net.run ~until:300.0 net;
  let delivered2 =
    List.fold_left (fun acc u -> acc + List.length (Agentmail.mailbox k ~user:u)) 0 users
  in
  let crashing =
    {
      scenario = "crashing homes";
      sent;
      delivered = delivered2;
      extra = "losses = agents racing a down home";
    }
  in
  (* scenario 3: list + vacation + forward features *)
  let net, k, _ = mk_world () in
  Agentmail.make_list k ~name:"all" ~members:[ "u1"; "u2"; "u3" ];
  Agentmail.set_forward k ~user:"u2" ~to_user:"u4";
  Agentmail.set_vacation k ~user:"u3" ~note:"away";
  Agentmail.send k ~src:0 ~from_user:"u0" ~to_user:"all" ~subject:"ann" ~body:"x";
  Net.run ~until:120.0 net;
  let got u = List.length (Agentmail.mailbox k ~user:u) in
  let features =
    {
      scenario = "list+forward+vacation";
      sent = 1;
      delivered = got "u1" + got "u4" + got "u3";
      extra =
        Printf.sprintf "u1=%d u4(fwd of u2)=%d u3=%d u0(auto-reply)=%d" (got "u1") (got "u4")
          (got "u3") (got "u0");
    }
  in
  [ healthy; crashing; features ]

type latency_row = {
  l_architecture : string;
  detections : int;
  mean_detection_latency : float;
  l_bytes : int;
}

let run_latency ?(stations = 8) ?(hours = 72) () =
  let hour_scale = 1.0 in
  let field = Weather.generate ~rng:(Rng.create 808L) ~stations ~hours ~storm_count:3 () in
  let sensors = List.init stations (fun i -> i + 1) in
  (* push: resident monitors *)
  let net_p = Net.create (Topology.star stations) in
  let kp = Kernel.create net_p in
  let finish =
    Stormcast.run_monitor_agents kp ~field ~sensor_sites:sensors ~centre:0 ~hour_scale ()
  in
  Net.run ~until:(float_of_int (hours + 10) *. hour_scale) net_p;
  let push = finish () in
  (* tour: the collector sweeps once at the end of the window; an anomalous
     reading produced at hour h has waited since then *)
  let net_t = Net.create (Topology.star stations) in
  let kt = Kernel.create net_t in
  Stormcast.load_sensor_data kt ~sites:sensors field;
  let tour_out = ref None in
  ignore
    (Net.schedule net_t ~after:(float_of_int hours *. hour_scale) (fun () ->
         Stormcast.run_agent_collector kt ~sensor_sites:sensors ~centre:0 ~on_done:(fun o ->
             tour_out := Some o)));
  Net.run ~until:(float_of_int (hours + 100) *. hour_scale) net_t;
  let tour = match !tour_out with Some o -> o | None -> failwith "E8c: tour did not finish" in
  let anomalies =
    Array.to_list field.Weather.readings
    |> List.concat_map Array.to_list
    |> List.filter Stormcast.anomalous
  in
  let tour_latency =
    match anomalies with
    | [] -> 0.0
    | _ ->
      Tacoma_util.Stats.mean
        (List.map
           (fun (r : Weather.reading) ->
             tour.Stormcast.finished_at -. (float_of_int (r.Weather.hour + 1) *. hour_scale))
           anomalies)
  in
  [
    {
      l_architecture = "resident monitors (push)";
      detections = push.Stormcast.alerts;
      mean_detection_latency = push.Stormcast.mean_alert_latency;
      l_bytes = push.Stormcast.push_bytes;
    };
    {
      l_architecture = "roaming collector (tour)";
      detections = tour.Stormcast.readings_moved;
      mean_detection_latency = tour_latency;
      l_bytes = tour.Stormcast.bytes_moved;
    };
  ]

let print_table fmt =
  let sc = run_stormcast () in
  Table.render fmt
    ~title:"E8a StormCast: agent collector vs client/server pull (8 stations x 168h, 3 storms)"
    ~header:
      [ "architecture"; "bytes moved"; "readings moved"; "t (s)"; "hit rate"; "false alarms" ]
    (List.map
       (fun r ->
         [
           Table.S r.architecture;
           Table.I r.bytes_moved;
           Table.I r.readings_moved;
           Table.F2 r.completion_s;
           Table.Pct r.hit_rate;
           Table.Pct r.false_alarm_rate;
         ])
       sc);
  let lat = run_latency () in
  Table.render fmt
    ~title:
      "E8c StormCast detection latency: resident monitor agents vs an end-of-window tour (1s = 1h)"
    ~header:[ "architecture"; "detections"; "mean latency s"; "bytes" ]
    (List.map
       (fun r ->
         [
           Table.S r.l_architecture;
           Table.I r.detections;
           Table.F r.mean_detection_latency;
           Table.I r.l_bytes;
         ])
       lat);
  let mail = run_mail () in
  Table.render fmt ~title:"E8b agent mail: delivery under three scenarios"
    ~header:[ "scenario"; "sent"; "delivered"; "notes" ]
    (List.map
       (fun r -> [ Table.S r.scenario; Table.I r.sent; Table.I r.delivered; Table.S r.extra ])
       mail)
