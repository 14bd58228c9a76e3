module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Net = Netsim.Net
module Topology = Netsim.Topology
module Chaos = Netsim.Chaos
module Rng = Tacoma_util.Rng
module Stats = Tacoma_util.Stats
module Escort = Guard.Escort

type row = {
  shape : string;
  lambda : float;
  trials : int;
  guarded_completed : int;
  unguarded_completed : int;
  mean_relaunches : float;
  guarded_time : float;
  unguarded_time : float;
}

type params = {
  trials : int;
  lambdas : float list;
  work_per_hop : float;
  mean_downtime : float;
  horizon : float;
}

let default_params =
  {
    trials = 25;
    lambdas = [ 0.0; 0.002; 0.005; 0.01; 0.02 ];
    work_per_hop = 1.0;
    mean_downtime = 8.0;
    horizon = 600.0;
  }

type shape = { shape_name : string; sites : int; branches : int list list }

let shapes =
  [
    { shape_name = "line-6"; sites = 6; branches = [ [ 0; 1; 2; 3; 4; 5 ] ] };
    { shape_name = "cycle-8"; sites = 4; branches = [ [ 0; 1; 2; 3; 0; 1; 2; 3 ] ] };
    {
      shape_name = "fanout-3x3";
      sites = 7;
      branches = [ [ 0; 1; 2 ]; [ 0; 3; 4 ]; [ 0; 5; 6 ] ];
    };
  ]

let guard_config =
  {
    Escort.ack_timeout = 4.0;
    retry_period = 3.0;
    max_relaunch = 30;
    transport = Tacoma_core.Kernel.Tcp;
    durable = false;
  }

(* one trial: returns (completed, completion_time, relaunches) *)
let run_trial p shape ~plan ~guarded ~trial =
  let net = Net.create (Topology.full_mesh shape.sites) in
  let k = Kernel.create net in
  Chaos.apply net plan;
  let work ctx ~hop:_ _ = Kernel.sleep ctx p.work_per_hop in
  let completion_time = ref nan in
  let total = List.length shape.branches in
  let done_count = ref 0 in
  let on_complete _ =
    incr done_count;
    if !done_count = total then completion_time := Net.now net
  in
  let journeys =
    List.mapi
      (fun i branch ->
        let id = Printf.sprintf "%s-%b-%d-%d" shape.shape_name guarded trial i in
        if guarded then
          Escort.guarded_journey k ~config:guard_config ~id ~itinerary:branch ~work
            ~on_complete (Briefcase.create ())
        else
          Escort.unguarded_journey k ~id ~itinerary:branch ~work ~on_complete
            (Briefcase.create ()))
      shape.branches
  in
  Net.run ~until:p.horizon net;
  let completed = !done_count = total in
  let relaunches =
    List.fold_left (fun acc j -> acc + (Escort.stats j).Escort.relaunches) 0 journeys
  in
  (completed, !completion_time, relaunches)

let run_config p shape lambda =
  let rng = Rng.create (Int64.of_int (Hashtbl.hash (shape.shape_name, lambda))) in
  let g_done = ref 0 and u_done = ref 0 in
  let g_times = ref [] and u_times = ref [] in
  let relaunches = ref 0 in
  for trial = 1 to p.trials do
    let plan =
      Chaos.crashes ~rng
        ~sites:(List.init shape.sites Fun.id)
        ~rate:lambda ~mean_downtime:p.mean_downtime ~until:p.horizon
    in
    let gc, gt, r = run_trial p shape ~plan ~guarded:true ~trial in
    let uc, ut, _ = run_trial p shape ~plan ~guarded:false ~trial in
    if gc then begin
      incr g_done;
      g_times := gt :: !g_times
    end;
    if uc then begin
      incr u_done;
      u_times := ut :: !u_times
    end;
    relaunches := !relaunches + r
  done;
  {
    shape = shape.shape_name;
    lambda;
    trials = p.trials;
    guarded_completed = !g_done;
    unguarded_completed = !u_done;
    mean_relaunches = float_of_int !relaunches /. float_of_int p.trials;
    guarded_time = Stats.mean !g_times;
    unguarded_time = Stats.mean !u_times;
  }

let run ?(params = default_params) () =
  List.concat_map
    (fun shape -> List.map (run_config params shape) params.lambdas)
    shapes

let print_table fmt =
  let rows = run () in
  Table.render fmt
    ~title:
      (Printf.sprintf
         "E6 rear guards: completion under site crashes (%d trials/config, identical fault schedules)"
         default_params.trials)
    ~header:
      [
        "shape"; "lambda"; "guarded done"; "unguarded done"; "relaunches/trial";
        "guarded t"; "unguarded t";
      ]
    (List.map
       (fun r ->
         [
           Table.S r.shape;
           Table.F r.lambda;
           Table.S (Printf.sprintf "%d/%d" r.guarded_completed r.trials);
           Table.S (Printf.sprintf "%d/%d" r.unguarded_completed r.trials);
           Table.F2 r.mean_relaunches;
           Table.F2 r.guarded_time;
           Table.F2 r.unguarded_time;
         ])
       rows)
