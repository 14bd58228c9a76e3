module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Cabinet = Tacoma_core.Cabinet
module Net = Netsim.Net
module Topology = Netsim.Topology
module Chaos = Netsim.Chaos
module Rng = Tacoma_util.Rng
module Stats = Tacoma_util.Stats
module Escort = Guard.Escort

type a1_row = { period : string; mean_response : float; p95_response : float }

type a2_row = {
  ack_timeout : float;
  durable : bool;
  completed : int;
  trials : int;
  relaunches : float;
  mean_time : float;
}

type a3_row = { group_on : bool; idle_bytes_per_s : float; abort_latency : float }
type a4_row = { code_bytes : int; ratio : float }

(* --- A1: how stale may load reports be? ------------------------------------- *)

let run_a1 () =
  let base = E5_broker.default_params in
  List.map
    (fun (label, period) ->
      let params = { base with E5_broker.report_period = period } in
      let rows = E5_broker.run ~params () in
      let ll = List.find (fun r -> r.E5_broker.policy = "least-loaded") rows in
      {
        period = label;
        mean_response = ll.E5_broker.mean_response;
        p95_response = ll.E5_broker.p95_response;
      })
    [
      ("0.1s", 0.1);
      ("0.5s", 0.5);
      ("2s", 2.0);
      ("8s", 8.0);
      ("once", 1.0e9); (* a single report at startup, never refreshed *)
    ]

(* --- A2: guard patience and durability --------------------------------------- *)

let a2_trials = 25
let a2_lambda = 0.03

let run_a2 () =
  let sites = 6 in
  let horizon = 600.0 in
  let rng = Rng.create 31337L in
  let plans =
    List.init a2_trials (fun _ ->
        Chaos.crashes ~rng ~sites:(List.init sites Fun.id) ~rate:a2_lambda
          ~mean_downtime:12.0 ~until:horizon)
  in
  let run_config ~ack_timeout ~durable =
    let completed = ref 0 and relaunches = ref 0 and times = ref [] in
    List.iteri
      (fun trial plan ->
        let net = Net.create (Topology.full_mesh sites) in
        let k = Kernel.create net in
        Chaos.apply net plan;
        let config =
          {
            Escort.ack_timeout;
            retry_period = 3.0;
            max_relaunch = 30;
            transport = Kernel.Tcp;
            durable;
          }
        in
        let finished_at = ref nan in
        let j =
          Escort.guarded_journey k ~config
            ~id:(Printf.sprintf "a2-%f-%b-%d" ack_timeout durable trial)
            ~itinerary:[ 0; 1; 2; 3; 4; 5 ]
            ~work:(fun ctx ~hop:_ _ -> Kernel.sleep ctx 1.0)
            ~on_complete:(fun _ -> finished_at := Net.now net)
            (Briefcase.create ())
        in
        Net.run ~until:horizon net;
        let s = Escort.stats j in
        if s.Escort.completed then begin
          incr completed;
          times := !finished_at :: !times
        end;
        relaunches := !relaunches + s.Escort.relaunches)
      plans;
    {
      ack_timeout;
      durable;
      completed = !completed;
      trials = a2_trials;
      relaunches = float_of_int !relaunches /. float_of_int a2_trials;
      mean_time = Stats.mean !times;
    }
  in
  List.concat_map
    (fun ack_timeout ->
      [ run_config ~ack_timeout ~durable:false; run_config ~ack_timeout ~durable:true ])
    [ 2.0; 4.0; 8.0; 16.0 ]

(* --- A3: the kernel-wide Horus group ------------------------------------------ *)

let run_a3 () =
  List.map
    (fun group_on ->
      (* idle background cost *)
      let net = Net.create (Topology.full_mesh 8) in
      let config =
        { Kernel.default_config with
          horus = { Kernel.default_config.horus with group = group_on } }
      in
      let _k = Kernel.create ~config net in
      Net.run ~until:60.0 net;
      let idle_bytes_per_s =
        float_of_int (Netsim.Netstats.bytes_sent (Net.stats net)) /. 60.0
      in
      (* abort latency: migrate (horus transport) into a permanently dead
         site; the "horus.giveup" trace event marks when retries stop *)
      let net2 = Net.create ~trace:true (Topology.full_mesh 8) in
      let k2 = Kernel.create ~config net2 in
      Chaos.crash_for net2 ~site:1 ~at:0.0 ~downtime:Float.infinity;
      ignore
        (Net.schedule net2 ~after:5.0 (fun () ->
             let bc = Briefcase.create () in
             Briefcase.set bc Briefcase.code_folder "meet noop";
             Briefcase.set bc Briefcase.host_folder (Kernel.site_name k2 1);
             Briefcase.set bc Briefcase.contact_folder "ag_script";
             Briefcase.set bc "TRANSPORT" "horus";
             Kernel.launch k2 ~site:0 ~contact:"rexec" bc));
      Net.run ~until:120.0 net2;
      let gave_up_at =
        List.fold_left
          (fun acc (e : Obs.Event.t) -> if e.name = "horus.giveup" then Some e.time else acc)
          None
          (Obs.Tracer.events (Net.recorder net2))
      in
      {
        group_on;
        idle_bytes_per_s;
        abort_latency =
          (match gave_up_at with Some t -> t -. 5.0 | None -> nan);
      })
    [ false; true ]

(* --- A4: how much code can the agent afford to carry? -------------------------- *)

let a4_selectivity = 0.05

let collector_with_padding pad =
  Printf.sprintf {|
  # ballast: %s
  foreach r [cabinet list DATA] {
    if {[string match {HIT*} $r]} { folder put RESULTS $r }
  }
  folder clear CODE
  folder set HOST [folder peek HOME]
  folder set CONTACT e1-home
  meet rexec
|}
    (String.make pad 'x')

let run_a4_one ~code_pad =
  let p = E1_bandwidth.default_params in
  let topo = Topology.line (p.E1_bandwidth.hops + 1) in
  let net = Net.create topo in
  let k =
    Kernel.create ~config:{ Kernel.default_config with step_limit = Some 50_000_000 } net
  in
  let client = 0 and data_site = p.E1_bandwidth.hops in
  let matching =
    int_of_float (Float.round (a4_selectivity *. float_of_int p.E1_bandwidth.records))
  in
  let rows =
    List.init p.E1_bandwidth.records (fun i ->
        let tag = if i < matching then "HIT" else "MIS" in
        let body = Printf.sprintf "%s-%06d-" tag i in
        body ^ String.make (max 0 (p.E1_bandwidth.record_bytes - String.length body)) 'd')
  in
  Cabinet.replace (Kernel.cabinet k data_site) "DATA" rows;
  let finished = ref false in
  Kernel.register_native k ~site:client "e1-home" (fun _ _ -> finished := true);
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.code_folder (collector_with_padding code_pad);
  Briefcase.set bc "HOME" (Kernel.site_name k client);
  Briefcase.set bc Briefcase.host_folder (Kernel.site_name k data_site);
  Briefcase.set bc Briefcase.contact_folder "ag_script";
  Kernel.launch k ~site:client ~contact:"rexec" bc;
  Net.run ~until:3600.0 net;
  assert !finished;
  Netsim.Netstats.byte_hops (Net.stats net)

let run_a4 () =
  let p = E1_bandwidth.default_params in
  let cs_bytes =
    let rows =
      E1_bandwidth.run
        ~params:{ p with E1_bandwidth.selectivities = [ a4_selectivity ] }
        ()
    in
    (List.hd rows).E1_bandwidth.cs_bytes
  in
  List.map
    (fun code_pad ->
      let agent_bytes = run_a4_one ~code_pad in
      { code_bytes = code_pad; ratio = float_of_int cs_bytes /. float_of_int agent_bytes })
    [ 0; 1024; 4096; 16384; 65536 ]

(* --- A5: service routing across a broker overlay ------------------------------- *)

type a5_row = { chain_length : int; broker_hops : int; lookup_latency : float }

let run_a5 ?(chain_lengths = [ 0; 1; 2; 4; 8 ]) () =
  List.map
    (fun chain ->
      (* chain+1 broker sites in a line, provider at the far end's site *)
      let nsites = chain + 2 in
      let net = Net.create (Topology.line nsites) in
      let k = Kernel.create net in
      let brokers =
        List.init (chain + 1) (fun i ->
            Broker.Matchmaker.install k ~site:i ~name:(Printf.sprintf "b%d" i) ())
      in
      let r = Broker.Routing.create k ~advert_period:0.25 () in
      List.iter (Broker.Routing.add_broker r) brokers;
      let rec connect = function
        | a :: (b :: _ as rest) ->
          Broker.Routing.connect r a b;
          connect rest
        | _ -> ()
      in
      connect brokers;
      let far = List.nth brokers chain in
      let prov =
        Broker.Provider.install k ~site:(nsites - 1) ~name:"far-prov" ~service:"compute"
          ~capacity:1.0 ()
      in
      Broker.Matchmaker.register_provider far prov;
      (* let the distance-vector tables converge *)
      Net.run ~until:(2.0 +. (0.5 *. float_of_int chain)) net;
      let asked_at = Net.now net in
      let result = ref None in
      Broker.Routing.routed_lookup r ~from:(List.hd brokers) ~service:"compute"
        ~on_reply:(fun x -> result := Some (x, Net.now net));
      Net.run ~until:(asked_at +. 30.0) net;
      match !result with
      | Some (Ok (_, hops), at) ->
        { chain_length = chain; broker_hops = hops; lookup_latency = at -. asked_at }
      | Some (Error e, _) -> failwith ("A5: lookup failed: " ^ e)
      | None -> failwith "A5: no reply")
    chain_lengths

(* --- rendering ------------------------------------------------------------------ *)

(* One printer per ablation; the registry composes them, and each can be
   regenerated on its own (A1 alone reruns E5 five times). *)

let print_a1 fmt =
  Table.render fmt
    ~title:"A1 ablation: broker (least-loaded) vs load-report staleness"
    ~header:[ "report period"; "mean resp s"; "p95 resp s" ]
    (List.map
       (fun r -> [ Table.S r.period; Table.F2 r.mean_response; Table.F2 r.p95_response ])
       (run_a1 ()))

let print_a2 fmt =
  Table.render fmt
    ~title:
      (Printf.sprintf "A2 ablation: guard patience and durability (line-6, lambda=%.3f)"
         a2_lambda)
    ~header:[ "ack timeout"; "durable"; "completed"; "relaunches/trial"; "mean time s" ]
    (List.map
       (fun r ->
         [
           Table.F2 r.ack_timeout;
           Table.S (if r.durable then "yes" else "no");
           Table.S (Printf.sprintf "%d/%d" r.completed r.trials);
           Table.F2 r.relaunches;
           Table.F2 r.mean_time;
         ])
       (run_a2 ()))

let print_a3 fmt =
  Table.render fmt
    ~title:"A3 ablation: kernel-wide Horus group — background cost vs fast failure detection"
    ~header:[ "group"; "idle bytes/s (8 sites)"; "retry-abort latency s" ]
    (List.map
       (fun r ->
         [
           Table.S (if r.group_on then "on" else "off");
           Table.F2 r.idle_bytes_per_s;
           Table.F2 r.abort_latency;
         ])
       (run_a3 ()))

let print_a4 fmt =
  Table.render fmt
    ~title:
      (Printf.sprintf "A4 ablation: E1 advantage vs shipped code size (selectivity %.2f)"
         a4_selectivity)
    ~header:[ "extra code B"; "c-s/agent" ]
    (List.map (fun r -> [ Table.I r.code_bytes; Table.F2 r.ratio ]) (run_a4 ()))

let print_a5 fmt =
  Table.render fmt
    ~title:"A5 broker routing overlay: resolving a service L brokers away"
    ~header:[ "overlay distance"; "query hops"; "lookup latency s" ]
    (List.map
       (fun r -> [ Table.I r.chain_length; Table.I r.broker_hops; Table.F r.lookup_latency ])
       (run_a5 ()))
