(* One policy row of E5 (lib/experiments/e5_broker.ml), built and run
   through the same public calls, so the benchmark can time the rows one by
   one and pause between slices of simulated time.  [E5_broker.run] builds
   and runs all four rows inside one call.  The rows printed by [row_text]
   are byte-identical to E5's; the exp-broker pins hold them. *)

module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Net = Netsim.Net
module Topology = Netsim.Topology
module Rng = Tacoma_util.Rng
module Stats = Tacoma_util.Stats
module Policy = Broker.Policy
module Matchmaker = Broker.Matchmaker
module Provider = Broker.Provider
module E5 = Experiments.E5_broker

(* E5's horizon, run in this many slices *)
let horizon = 36_000.0
let slices = 360

type t = {
  policy : Policy.t;
  net : Net.t;
  providers : Provider.t list;
  responses : float list ref;
  last_completion : float ref;
}

let build (p : E5.params) policy =
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
        Provider.start_load_monitor k prov ~brokers:[ (hub, "broker") ] ~period:p.report_period;
        prov)
      p.providers
  in
  let submit_times = Hashtbl.create 64 in
  let responses = ref [] and last_completion = ref 0.0 in
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
  let arrival_rng = Rng.create 2024L in
  let t = ref 0.0 in
  for i = 0 to p.jobs - 1 do
    t := !t +. Rng.exponential arrival_rng ~mean:p.mean_interarrival;
    let job = Printf.sprintf "job-%d" i in
    ignore
      (Net.schedule net ~after:!t (fun () ->
           match Matchmaker.lookup b ~service:"compute" () with
           | None -> ()
           | Some c -> (
             match Kernel.site_named k c.Policy.host with
             | None -> ()
             | Some dst ->
               Hashtbl.replace submit_times job (Net.now net);
               let bc = Briefcase.create () in
               Briefcase.set bc "JOB" job;
               Briefcase.set bc "WORK" (string_of_float p.work_per_job);
               Briefcase.set bc "REPLY-HOST" (Kernel.site_name k hub);
               Briefcase.set bc "REPLY-AGENT" "job-back";
               Kernel.send_briefcase k ~src:hub ~dst ~contact:c.Policy.provider bc)))
  done;
  { policy; net; providers; responses; last_completion }

(* [Net.run ~until:horizon], one slice at a time, calling [pause] between
   slices.  Only event handlers schedule events, so the slices fire the
   same events in the same order as one run. *)
let run ~pause w =
  for s = 1 to slices do
    Net.run ~until:(horizon *. float_of_int s /. float_of_int slices) w.net;
    if s < slices then pause ()
  done

let row w : E5.row =
  let busy_per_cap =
    List.map (fun prov -> Provider.busy_time prov /. Provider.capacity prov) w.providers
  in
  let mean_bpc = Stats.mean busy_per_cap in
  {
    policy = Policy.name w.policy;
    jobs = List.length !(w.responses);
    makespan = !(w.last_completion);
    mean_response = Stats.mean !(w.responses);
    p95_response = Stats.percentile 95.0 !(w.responses);
    imbalance = (if mean_bpc = 0.0 then 0.0 else Stats.stddev busy_per_cap /. mean_bpc);
  }

let row_text (r : E5.row) =
  Printf.sprintf "%s %d %.17g %.17g %.17g %.17g" r.policy r.jobs r.makespan r.mean_response
    r.p95_response r.imbalance
