module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Cabinet = Tacoma_core.Cabinet
module Net = Netsim.Net
module Topology = Netsim.Topology

type row = {
  selectivity : float;
  agent_bytes : int;
  cs_bytes : int;
  ratio : float;
  agent_time : float;
  cs_time : float;
}

type params = {
  records : int;
  record_bytes : int;
  hops : int;
  selectivities : float list;
}

let default_params =
  {
    records = 1000;
    record_bytes = 100;
    hops = 3;
    selectivities = [ 0.001; 0.01; 0.05; 0.1; 0.3; 0.5; 0.8; 1.0 ];
  }

(* Rows are "HIT..." or "MIS...", padded to record_bytes; the first
   [selectivity * records] rows match, which makes byte counts exact. *)
let dataset p ~selectivity =
  let matching = int_of_float (Float.round (selectivity *. float_of_int p.records)) in
  List.init p.records (fun i ->
      let tag = if i < matching then "HIT" else "MIS" in
      let body = Printf.sprintf "%s-%06d-" tag i in
      body ^ String.make (max 0 (p.record_bytes - String.length body)) 'd')

(* The collector really is a TScript agent: its source is what ships in the
   CODE folder, so code-transfer overhead is charged honestly. *)
let collector_script = {|
  foreach r [cabinet list DATA] {
    if {[string match {HIT*} $r]} { folder put RESULTS $r }
  }
  folder clear CODE
  folder set HOST [folder peek HOME]
  folder set CONTACT e1-home
  meet rexec
|}

let run_agent p ~selectivity =
  let topo = Topology.line (p.hops + 1) in
  let net = Net.create topo in
  let k =
    Kernel.create
      ~config:{ Kernel.default_config with step_limit = Some 50_000_000 }
      net
  in
  let client = 0 and data_site = p.hops in
  Cabinet.replace (Kernel.cabinet k data_site) "DATA" (dataset p ~selectivity);
  let finished = ref None in
  Kernel.register_native k ~site:client "e1-home" (fun ctx bc ->
      finished :=
        Some (Kernel.now ctx.Kernel.kernel, Folder.length (Briefcase.folder bc "RESULTS")));
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.code_folder collector_script;
  Briefcase.set bc "HOME" (Kernel.site_name k client);
  Briefcase.set bc Briefcase.host_folder (Kernel.site_name k data_site);
  Briefcase.set bc Briefcase.contact_folder "ag_script";
  Kernel.launch k ~site:client ~contact:"rexec" bc;
  Net.run net;
  match !finished with
  | Some (time, _) -> (Netsim.Netstats.byte_hops (Net.stats net), time)
  | None -> failwith "E1: agent run did not finish"

let run_client_server p ~selectivity =
  let topo = Topology.line (p.hops + 1) in
  let net = Net.create topo in
  let client = 0 and data_site = p.hops in
  let rows = dataset p ~selectivity in
  Baseline.Rpc.serve net ~site:data_site ~service:"scan" (fun ~query:_ -> rows);
  let finished = ref None in
  let rpc = Baseline.Rpc.client net ~src:client in
  Baseline.Rpc.call rpc ~dst:data_site ~service:"scan" ~query:"HIT*"
    ~on_reply:(fun received ->
      (* the client filters locally, after the raw transfer *)
      let matches = List.filter (fun r -> String.length r >= 3 && String.sub r 0 3 = "HIT") received in
      ignore matches;
      finished := Some (Net.now net));
  Net.run net;
  match !finished with
  | Some time -> (Netsim.Netstats.byte_hops (Net.stats net), time)
  | None -> failwith "E1: client/server run did not finish"

(* the Tromsø–Cornell variant: same workload, WAN-pair topology *)
let wan_topo () = Topology.wan_pair ~cluster:3 ()
let wan_client = 1 (* tromso-1 *)
let wan_data = 4 (* cornell-1: the route crosses both LANs and the WAN *)

let run_wan_agent p ~selectivity =
  let net = Net.create (wan_topo ()) in
  let k =
    Kernel.create ~config:{ Kernel.default_config with step_limit = Some 50_000_000 } net
  in
  Cabinet.replace (Kernel.cabinet k wan_data) "DATA" (dataset p ~selectivity);
  let finished = ref None in
  Kernel.register_native k ~site:wan_client "e1-home" (fun ctx _ ->
      finished := Some (Kernel.now ctx.Kernel.kernel));
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.code_folder collector_script;
  Briefcase.set bc "HOME" (Kernel.site_name k wan_client);
  Briefcase.set bc Briefcase.host_folder (Kernel.site_name k wan_data);
  Briefcase.set bc Briefcase.contact_folder "ag_script";
  Kernel.launch k ~site:wan_client ~contact:"rexec" bc;
  Net.run net;
  match !finished with
  | Some time -> (Netsim.Netstats.byte_hops (Net.stats net), time)
  | None -> failwith "E1-wan: agent run did not finish"

let run_wan_cs p ~selectivity =
  let net = Net.create (wan_topo ()) in
  let rows = dataset p ~selectivity in
  Baseline.Rpc.serve net ~site:wan_data ~service:"scan" (fun ~query:_ -> rows);
  let finished = ref None in
  let rpc = Baseline.Rpc.client net ~src:wan_client in
  Baseline.Rpc.call rpc ~dst:wan_data ~service:"scan" ~query:"HIT*"
    ~on_reply:(fun _ -> finished := Some (Net.now net));
  Net.run net;
  match !finished with
  | Some time -> (Netsim.Netstats.byte_hops (Net.stats net), time)
  | None -> failwith "E1-wan: client/server run did not finish"

let run_wan ?(selectivities = [ 0.01; 0.1; 0.5 ]) () =
  let p = { default_params with selectivities } in
  List.map
    (fun selectivity ->
      let agent_bytes, agent_time = run_wan_agent p ~selectivity in
      let cs_bytes, cs_time = run_wan_cs p ~selectivity in
      {
        selectivity;
        agent_bytes;
        cs_bytes;
        ratio = float_of_int cs_bytes /. float_of_int (max 1 agent_bytes);
        agent_time;
        cs_time;
      })
    selectivities

let run ?(params = default_params) () =
  List.map
    (fun selectivity ->
      let agent_bytes, agent_time = run_agent params ~selectivity in
      let cs_bytes, cs_time = run_client_server params ~selectivity in
      {
        selectivity;
        agent_bytes;
        cs_bytes;
        ratio = float_of_int cs_bytes /. float_of_int (max 1 agent_bytes);
        agent_time;
        cs_time;
      })
    params.selectivities

let print_table fmt =
  let rows = run () in
  Table.render fmt
    ~title:
      (Printf.sprintf "E1 bandwidth: agent filter-at-data vs client/server raw pull (%d x %dB, %d hops)"
         default_params.records default_params.record_bytes default_params.hops)
    ~header:
      [ "selectivity"; "agent byte-hops"; "c/s byte-hops"; "c-s/agent"; "agent s"; "c/s s" ]
    (List.map
       (fun r ->
         [
           Table.F r.selectivity;
           Table.I r.agent_bytes;
           Table.I r.cs_bytes;
           Table.F2 r.ratio;
           Table.F2 r.agent_time;
           Table.F2 r.cs_time;
         ])
       rows);
  let wan = run_wan () in
  Table.render fmt
    ~title:
      "E1-wan: the same query across the paper's Tromso-Cornell shape (64 KB/s trans-Atlantic link)"
    ~header:
      [ "selectivity"; "agent byte-hops"; "c/s byte-hops"; "c-s/agent"; "agent s"; "c/s s" ]
    (List.map
       (fun r ->
         [
           Table.F r.selectivity;
           Table.I r.agent_bytes;
           Table.I r.cs_bytes;
           Table.F2 r.ratio;
           Table.F2 r.agent_time;
           Table.F2 r.cs_time;
         ])
       wan)
