module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Net = Netsim.Net
module Topology = Netsim.Topology
module Chaos = Netsim.Chaos

type cost_row = { transport : string; payload : int; journey_time : float; bytes : int }
type reliability_row = { r_transport : string; trials : int; delivered : int }

let transports = [ Kernel.Rsh; Kernel.Tcp; Kernel.Horus ]

(* hop agent: counts down HOPS-LEFT, moving one site right each time *)
let install_hopper k ~on_done =
  Kernel.register_native k "e7-hop" (fun ctx bc ->
      let t = ctx.Kernel.kernel in
      let left =
        Option.value ~default:0 (Option.bind (Briefcase.find_opt bc "HOPS-LEFT") int_of_string_opt)
      in
      if left = 0 then on_done (Kernel.now t)
      else begin
        Briefcase.set bc "HOPS-LEFT" (string_of_int (left - 1));
        let next = ctx.Kernel.site + 1 in
        Kernel.migrate t ~src:ctx.Kernel.site ~dst:next ~contact:"e7-hop"
          ~transport:
            (Option.get (Kernel.transport_of_string (Option.get (Briefcase.find_opt bc "TRANSPORT"))))
          bc
      end)

let run_cost_one ~hops ~payload transport =
  let net = Net.create (Topology.line (hops + 1)) in
  let k = Kernel.create net in
  let finished = ref None in
  install_hopper k ~on_done:(fun t -> finished := Some t);
  let bc = Briefcase.create () in
  Briefcase.set bc "HOPS-LEFT" (string_of_int hops);
  Briefcase.set bc "TRANSPORT" (Kernel.transport_name transport);
  Folder.replace (Briefcase.folder bc "PAYLOAD") [ String.make payload 'p' ];
  Kernel.launch k ~site:0 ~contact:"e7-hop" bc;
  Net.run net;
  match !finished with
  | Some t ->
    {
      transport = Kernel.transport_name transport;
      payload;
      journey_time = t;
      bytes = Netsim.Netstats.bytes_sent (Net.stats net);
    }
  | None -> failwith "E7: cost journey did not finish"

let run_cost ?(hops = 4) ?(payloads = [ 256; 4096; 65536 ]) () =
  List.concat_map
    (fun payload -> List.map (run_cost_one ~hops ~payload) transports)
    payloads

let run_reliability_one ~trial transport =
  let net = Net.create (Topology.line 2) in
  let config =
    { Kernel.default_config with
      horus = { Kernel.default_config.horus with max_attempts = 10 } }
  in
  let k = Kernel.create ~config net in
  let delivered = ref false in
  install_hopper k ~on_done:(fun _ -> delivered := true);
  (* the destination is down when the migration goes out, back soon after *)
  let downtime = 2.0 +. (0.5 *. float_of_int (trial mod 5)) in
  Chaos.crash_for net ~site:1 ~at:0.1 ~downtime;
  ignore
    (Net.schedule net ~after:0.5 (fun () ->
         let bc = Briefcase.create () in
         Briefcase.set bc "HOPS-LEFT" "1";
         Briefcase.set bc "TRANSPORT" (Kernel.transport_name transport);
         Kernel.launch k ~site:0 ~contact:"e7-hop" bc));
  Net.run net;
  !delivered

let run_reliability ?(trials = 10) () =
  List.map
    (fun transport ->
      let delivered = ref 0 in
      for trial = 1 to trials do
        if run_reliability_one ~trial transport then incr delivered
      done;
      { r_transport = Kernel.transport_name transport; trials; delivered = !delivered })
    transports

type loss_row = {
  l_transport : string;
  loss_rate : float;
  sent : int;
  arrived : int;
  extra_bytes : float;
}

let run_loss ?(agents = 50) ?(loss_rates = [ 0.0; 0.1; 0.3 ]) () =
  let run transport loss_rate =
    let net = Net.create ~loss_rate (Topology.line 2) in
    let config =
      {
        Kernel.default_config with
        default_transport = transport;
        horus = { Kernel.default_config.horus with max_attempts = 15; rto = 0.2 };
      }
    in
    let k = Kernel.create ~config net in
    let arrived = ref 0 in
    Kernel.register_native k "e7c-counter" (fun _ _ -> incr arrived);
    for i = 0 to agents - 1 do
      ignore
        (Net.schedule net ~after:(0.05 *. float_of_int i) (fun () ->
             let bc = Briefcase.create () in
             Briefcase.set bc Briefcase.host_folder "line-1";
             Briefcase.set bc Briefcase.contact_folder "e7c-counter";
             Kernel.launch k ~site:0 ~contact:"rexec" bc))
    done;
    Net.run net;
    (!arrived, Netsim.Netstats.bytes_sent (Net.stats net))
  in
  let baseline_arrived, baseline_bytes = run Kernel.Tcp 0.0 in
  let per_agent_baseline = float_of_int baseline_bytes /. float_of_int baseline_arrived in
  List.concat_map
    (fun loss_rate ->
      List.map
        (fun transport ->
          let arrived, bytes = run transport loss_rate in
          {
            l_transport = Kernel.transport_name transport;
            loss_rate;
            sent = agents;
            arrived;
            extra_bytes =
              (if arrived = 0 then nan
               else (float_of_int bytes /. float_of_int arrived) /. per_agent_baseline);
          })
        transports)
    loss_rates

let print_table fmt =
  let cost = run_cost () in
  Table.render fmt ~title:"E7a rexec transports: 4-hop journey cost by payload size"
    ~header:[ "transport"; "payload B"; "journey s"; "bytes" ]
    (List.map
       (fun r ->
         [ Table.S r.transport; Table.I r.payload; Table.F r.journey_time; Table.I r.bytes ])
       cost);
  let rel = run_reliability () in
  Table.render fmt
    ~title:"E7b rexec transports: migration into a site that is down (restarts 2-4.5s later)"
    ~header:[ "transport"; "trials"; "delivered" ]
    (List.map
       (fun r -> [ Table.S r.r_transport; Table.I r.trials; Table.I r.delivered ])
       rel);
  let loss = run_loss () in
  Table.render fmt
    ~title:"E7c rexec transports under message loss (50 agents, 1 hop)"
    ~header:[ "transport"; "loss rate"; "arrived"; "bytes/agent vs tcp@0" ]
    (List.map
       (fun r ->
         [
           Table.S r.l_transport;
           Table.F2 r.loss_rate;
           Table.S (Printf.sprintf "%d/%d" r.arrived r.sent);
           Table.F2 r.extra_bytes;
         ])
       loss)
