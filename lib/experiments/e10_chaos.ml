module H = Chaos_harness
module Chaos = Netsim.Chaos

type row = {
  partition_rate : float;
  seeds : int;
  guarded_frac : float;
  unguarded_frac : float;
  mean_relaunches : float;
  giveups : int;
  guarded_bytes : int;
  unguarded_bytes : int;
}

type params = { seeds : int; rates : float list }

let default_params = { seeds = 6; rates = [ 0.0; 0.005; 0.01; 0.025; 0.05 ] }

let run ?(params = default_params) () =
  let seeds = List.init params.seeds (fun i -> 1000 + i) in
  let config ~rate ~guarded =
    let profile =
      { Chaos.default_profile with bisection_rate = rate; mean_partition = 15.0 }
    in
    { H.default_config with profile; guarded }
  in
  let sweep ~rate ~guarded =
    List.map (fun seed -> H.run_seed ~config:(config ~rate ~guarded) ~seed ()) seeds
  in
  List.map
    (fun rate ->
      let g = sweep ~rate ~guarded:true in
      let u = sweep ~rate ~guarded:false in
      let total vs f = List.fold_left (fun a v -> a + f v) 0 vs in
      let frac vs =
        float_of_int (total vs (fun v -> v.H.v_completed))
        /. float_of_int (total vs (fun v -> v.H.v_journeys))
      in
      let runs = List.length g in
      {
        partition_rate = rate;
        seeds = params.seeds;
        guarded_frac = frac g;
        unguarded_frac = frac u;
        mean_relaunches =
          float_of_int (total g (fun v -> v.H.v_relaunches)) /. float_of_int runs;
        giveups = total g (fun v -> v.H.v_giveups);
        guarded_bytes = total g (fun v -> v.H.v_bytes_sent) / runs;
        unguarded_bytes = total u (fun v -> v.H.v_bytes_sent) / runs;
      })
    params.rates

let print_table fmt =
  let rows = run () in
  Table.render fmt
    ~title:
      (Printf.sprintf
         "E10 availability under chaos: bisection-rate sweep, guards on/off (%d seeds/cell, identical chaos plans)"
         default_params.seeds)
    ~header:
      [
        "partition rate"; "guarded"; "unguarded"; "relaunches/run"; "giveups";
        "guarded bytes"; "unguarded bytes"; "byte overhead";
      ]
    (List.map
       (fun r ->
         [
           Table.F r.partition_rate;
           Table.Pct r.guarded_frac;
           Table.Pct r.unguarded_frac;
           Table.F2 r.mean_relaunches;
           Table.I r.giveups;
           Table.I r.guarded_bytes;
           Table.I r.unguarded_bytes;
           Table.Pct
             (float_of_int (r.guarded_bytes - r.unguarded_bytes)
             /. float_of_int (max 1 r.unguarded_bytes));
         ])
       rows)
