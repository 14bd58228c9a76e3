module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Net = Netsim.Net
module Topology = Netsim.Topology
module Rng = Tacoma_util.Rng
module Stats = Tacoma_util.Stats
module Policy = Broker.Policy
module Matchmaker = Broker.Matchmaker
module Provider = Broker.Provider

type row = {
  policy : string;
  jobs : int;
  makespan : float;
  mean_response : float;
  p95_response : float;
  imbalance : float;
}

type params = {
  providers : float list;
  jobs : int;
  mean_interarrival : float;
  work_per_job : float;
  report_period : float;
}

let default_params =
  {
    providers = [ 4.0; 3.0; 2.0; 2.0; 1.0; 1.0; 1.0; 1.0 ];
    jobs = 200;
    mean_interarrival = 0.24;
    work_per_job = 3.0;
    report_period = 0.25;
  }

let run_policy p policy =
  let m = List.length p.providers in
  let net = Net.create (Topology.star m) in
  let k = Kernel.create net in
  let hub = 0 in
  let b = Matchmaker.install k ~site:hub ~name:"broker" ~policy () in
  let providers =
    List.mapi
      (fun i capacity ->
        let prov =
          Provider.install k ~site:(i + 1)
            ~name:(Printf.sprintf "prov-%d" i)
            ~service:"compute" ~capacity ()
        in
        Matchmaker.register_provider b prov;
        Provider.start_load_monitor k prov ~brokers:[ (hub, "broker") ]
          ~period:p.report_period;
        prov)
      p.providers
  in
  (* job completions come back to the hub *)
  let submit_times = Hashtbl.create 64 in
  let responses = ref [] in
  let last_completion = ref 0.0 in
  Kernel.register_native k ~site:hub "job-back" (fun ctx bc ->
      match Briefcase.find_opt bc "JOB" with
      | Some job -> (
        match Hashtbl.find_opt submit_times job with
        | Some t0 ->
          let now = Kernel.now ctx.Kernel.kernel in
          responses := (now -. t0) :: !responses;
          last_completion := max !last_completion now
        | None -> ())
      | None -> ());
  (* Poisson job arrivals at the hub: consult the broker, submit remotely *)
  let arrival_rng = Rng.create 2024L in
  let t = ref 0.0 in
  for i = 0 to p.jobs - 1 do
    t := !t +. Rng.exponential arrival_rng ~mean:p.mean_interarrival;
    let job = Printf.sprintf "job-%d" i in
    ignore
      (Net.schedule net ~after:!t (fun () ->
           match Matchmaker.lookup b ~service:"compute" () with
           | None -> ()
           | Some c ->
             (match Kernel.site_named k c.Policy.host with
             | None -> ()
             | Some dst ->
               Hashtbl.replace submit_times job (Net.now net);
               let bc = Briefcase.create () in
               Briefcase.set bc "JOB" job;
               Briefcase.set bc "WORK" (string_of_float p.work_per_job);
               Kernel.set_reply_to k bc ~site:hub ~agent:"job-back";
               Kernel.send_briefcase k ~src:hub ~dst ~contact:c.Policy.provider bc)))
  done;
  Net.run net;
  let busy_per_cap =
    List.map (fun prov -> Provider.busy_time prov /. Provider.capacity prov) providers
  in
  let mean_bpc = Stats.mean busy_per_cap in
  {
    policy = Policy.name policy;
    jobs = List.length !responses;
    makespan = !last_completion;
    mean_response = Stats.mean !responses;
    p95_response = Stats.percentile 95.0 !responses;
    imbalance = (if mean_bpc = 0.0 then 0.0 else Stats.stddev busy_per_cap /. mean_bpc);
  }

let run ?(params = default_params) () = List.map (run_policy params) Policy.all

let print_table fmt =
  let rows = run () in
  Table.render fmt
    ~title:
      (Printf.sprintf
         "E5 broker scheduling: %d jobs over %d heterogeneous providers (stale load reports every %.2fs)"
         default_params.jobs
         (List.length default_params.providers)
         default_params.report_period)
    ~header:[ "policy"; "completed"; "makespan s"; "mean resp s"; "p95 resp s"; "imbalance" ]
    (List.map
       (fun r ->
         [
           Table.S r.policy;
           Table.I r.jobs;
           Table.F2 r.makespan;
           Table.F2 r.mean_response;
           Table.F2 r.p95_response;
           Table.F2 r.imbalance;
         ])
       rows)
