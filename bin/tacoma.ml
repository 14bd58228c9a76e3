(* The tacoma command-line tool: run experiments, run ad-hoc agent scripts
   on a simulated network, inspect flight-recorder output, and show a traced
   demo journey. *)

let fmt = Format.std_formatter

(* --- shared pieces --------------------------------------------------------- *)

(* transport/topology/cache parsing lives in Tacoma_cli so experiment
   drivers and this tool stay in sync *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let recorded_events net = Obs.Tracer.events (Netsim.Net.recorder net)

let write_trace_out net = function
  | None -> ()
  | Some path ->
    Obs.Export.write_file path (Obs.Export.chrome (recorded_events net));
    Format.fprintf fmt "chrome trace written to %s (open in about:tracing or ui.perfetto.dev)@."
      path

let launch_script k code =
  let bc = Tacoma_core.Briefcase.create () in
  Tacoma_core.Briefcase.set bc Tacoma_core.Briefcase.code_folder code;
  Tacoma_core.Kernel.launch k ~site:0 ~contact:"ag_script" bc

(* --- exp: regenerate experiment tables ------------------------------------ *)

let exp_cmd =
  let run ids =
    match ids with
    | [] ->
      Format.fprintf fmt "Available experiments:@.";
      List.iter
        (fun e ->
          Format.fprintf fmt "  %-4s %s@.       claim: %s@." e.Experiments.Registry.id
            e.Experiments.Registry.title e.Experiments.Registry.paper_claim)
        Experiments.Registry.all;
      `Ok ()
    | [ "all" ] ->
      Experiments.Registry.run_all fmt;
      `Ok ()
    | ids -> (
      match
        List.find_opt (fun id -> Experiments.Registry.find id = None) ids
      with
      | Some bad -> `Error (false, Printf.sprintf "unknown experiment %S (try `tacoma exp')" bad)
      | None ->
        let entries = List.filter_map Experiments.Registry.find ids in
        Experiments.Registry.run entries fmt;
        `Ok ())
  in
  let open Cmdliner in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (e1..e10, abl) or 'all'.") in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate experiment tables (no arguments lists them).")
    Term.(ret (const run $ ids))

(* --- run: execute a TScript agent on a simulated network ------------------- *)

let common_topology_args =
  let open Cmdliner in
  let topology =
    Arg.(value
         & opt Tacoma_cli.topology_conv Tacoma_cli.Ring
         & info [ "t"; "topology" ] ~doc:"ring|line|star|mesh|grid")
  in
  let n = Arg.(value & opt int 8 & info [ "n"; "sites" ] ~doc:"Number of sites.") in
  (topology, n)

let run_simulation ~topology ~n ~trace ?transport ?cache code =
  let net = Netsim.Net.create ~trace (Tacoma_cli.build_topology topology n) in
  let config =
    Tacoma_cli.apply_config ?transport ?cache Tacoma_core.Kernel.default_config
  in
  let k = Tacoma_core.Kernel.create ~config net in
  launch_script k code;
  Netsim.Net.run ~until:3600.0 net;
  (net, k)

let pp_cache_stats k =
  match (Tacoma_core.Kernel.config k).Tacoma_core.Kernel.cache with
  | None -> ()
  | Some _ ->
    let used, entries =
      List.fold_left
        (fun (ub, ec) site ->
          match Tacoma_core.Kernel.code_cache k site with
          | Some c ->
            (ub + Tacoma_core.Codecache.bytes_used c, ec + Tacoma_core.Codecache.entry_count c)
          | None -> (ub, ec))
        (0, 0)
        (Netsim.Net.sites (Tacoma_core.Kernel.net k))
    in
    Format.fprintf fmt "code cache: %d entries, %d bytes cached, %d wire bytes saved@." entries
      used
      (Tacoma_core.Kernel.cache_saved_bytes k)

let run_script_cmd =
  let run topology n transport cache code_file trace trace_out =
    let code = read_file code_file in
    let net, k =
      run_simulation ~topology ~n ~trace:(trace || trace_out <> None) ?transport ?cache code
    in
    Format.fprintf fmt
      "done at t=%.4fs: %d activations, %d migrations, %d completions, %d deaths@."
      (Netsim.Net.now net)
      (Tacoma_core.Kernel.activations k)
      (Tacoma_core.Kernel.migrations k)
      (Tacoma_core.Kernel.completions k)
      (Tacoma_core.Kernel.deaths k);
    Format.fprintf fmt "network: %d messages, %d bytes, %d byte-hops@."
      (Netsim.Netstats.messages_sent (Netsim.Net.stats net))
      (Netsim.Netstats.bytes_sent (Netsim.Net.stats net))
      (Netsim.Netstats.byte_hops (Netsim.Net.stats net));
    pp_cache_stats k;
    List.iter
      (fun (name, a) ->
        Format.fprintf fmt "agent %-24s activations=%d completions=%d deaths=%d@." name
          a.Tacoma_core.Kernel.a_activations a.Tacoma_core.Kernel.a_completions
          a.Tacoma_core.Kernel.a_deaths)
      (Tacoma_core.Kernel.activity k);
    if trace then Obs.Export.pp_events fmt (recorded_events net);
    write_trace_out net trace_out
  in
  let open Cmdliner in
  let topology, n = common_topology_args in
  let code = Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT") in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Dump the event trace.") in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Record the run and write a Chrome trace-event JSON file.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Launch a TScript agent (from a file) at site 0 of a simulated network.")
    Term.(const run $ topology $ n $ Tacoma_cli.transport_term $ Tacoma_cli.cache_term $ code
          $ trace $ trace_out)

(* --- trace: run a script with the flight recorder on ----------------------- *)

let trace_cmd =
  let run topology n code_file format out =
    let code = read_file code_file in
    let net, _k = run_simulation ~topology ~n ~trace:true code in
    let events = recorded_events net in
    let contents =
      match format with `Jsonl -> Obs.Export.jsonl events | `Chrome -> Obs.Export.chrome events
    in
    match out with
    | None -> print_string contents
    | Some path ->
      Obs.Export.write_file path contents;
      Format.fprintf fmt "%d events written to %s@." (List.length events) path
  in
  let open Cmdliner in
  let topology, n = common_topology_args in
  let code = Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT") in
  let format =
    Arg.(value
         & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
         & info [ "f"; "format" ] ~doc:"Output format: jsonl (one event per line) or chrome.")
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a TScript agent with the flight recorder on and dump structured events.")
    Term.(const run $ topology $ n $ code $ format $ out)

(* --- metrics: run a script and dump the metrics registry ------------------- *)

let metrics_cmd =
  let run topology n transport cache code_file =
    let code = read_file code_file in
    let net, k = run_simulation ~topology ~n ~trace:false ?transport ?cache code in
    Obs.Metrics.pp fmt (Netsim.Net.metrics net);
    pp_cache_stats k
  in
  let open Cmdliner in
  let topology, n = common_topology_args in
  let code = Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT") in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a TScript agent and print the kernel/network metrics registry.")
    Term.(const run $ topology $ n $ Tacoma_cli.transport_term $ Tacoma_cli.cache_term $ code)

(* --- chaos: seeded invariant harness --------------------------------------- *)

let chaos_cmd =
  let run seeds seed sites horizon unguarded profile_partition jobs json json_out dump plan =
    let module H = Chaos_harness in
    let config =
      {
        H.default_config with
        sites;
        horizon;
        guarded = not unguarded;
        profile =
          (match profile_partition with
          | None -> H.default_config.H.profile
          | Some r -> { H.default_config.H.profile with Netsim.Chaos.bisection_rate = r });
      }
    in
    let seed_list = match seed with Some s -> [ s ] | None -> List.init seeds Fun.id in
    match dump with
    | Some path ->
      let s = match seed_list with s :: _ -> s | [] -> 0 in
      let p = H.plan_of_seed ~config ~seed:s () in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Netsim.Chaos.to_string p));
      Format.fprintf fmt "%d chaos events for seed %d written to %s@." (List.length p) s
        path;
      `Ok ()
    | None ->
      let verdicts = H.run_sweep ~config ?plan ~jobs ~seeds:seed_list () in
      if json then List.iter (fun v -> print_endline (H.verdict_json v)) verdicts
      else List.iter (fun v -> Format.fprintf fmt "%a@." H.pp_verdict v) verdicts;
      (match json_out with
      | None -> ()
      | Some path ->
        Out_channel.with_open_bin path (fun oc ->
            List.iter
              (fun v ->
                Out_channel.output_string oc (H.verdict_json v);
                Out_channel.output_char oc '\n')
              verdicts);
        Format.fprintf fmt "%d verdicts written to %s@." (List.length verdicts) path);
      if H.all_passed verdicts then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "%d of %d seeds violated invariants"
              (List.length (List.filter (fun v -> not (H.passed v)) verdicts))
              (List.length verdicts) )
  in
  let open Cmdliner in
  let seeds =
    Arg.(value & opt int 10
         & info [ "seeds" ] ~docv:"N" ~doc:"Run seeds 0..N-1 (ignored with $(b,--seed)).")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"Run one seed.")
  in
  let sites = Arg.(value & opt int 10 & info [ "n"; "sites" ] ~doc:"Number of sites.") in
  let horizon =
    Arg.(value & opt float 300.0
         & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Chaos injection window (sim time).")
  in
  let unguarded =
    Arg.(value & flag
         & info [ "unguarded" ] ~doc:"Run journeys without rear guards (lossy baseline).")
  in
  let partition_rate =
    Arg.(value & opt (some float) None
         & info [ "partition-rate" ] ~docv:"RATE"
             ~doc:"Override the profile's bisection (clean partition) rate per second.")
  in
  let jobs =
    (* well under the runtime's domain limit, so a spawn never fails midway *)
    let max_jobs = 64 in
    let parse s =
      match int_of_string_opt s with
      | Some n when n > max_jobs ->
        Error (`Msg (Printf.sprintf "job count must be at most %d" max_jobs))
      | Some n when n >= 0 -> Ok n
      | Some _ -> Error (`Msg "job count must be >= 0 (0 = one worker per core)")
      | None -> Error (`Msg (Printf.sprintf "invalid job count %S" s))
    in
    Arg.(value
         & opt (conv ~docv:"N" (parse, Format.pp_print_int)) 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:
               "Worker domains for the seed sweep.  1 (the default) is the serial path; \
                0 means one per core; at most 64.  Verdicts are byte-identical for every value.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print one JSON verdict per line.") in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE" ~doc:"Also write JSON verdicts to FILE.")
  in
  let dump =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"FILE"
             ~doc:"Write the seed's generated chaos plan to FILE and exit (no run).")
  in
  let plan =
    Arg.(value & opt (some Tacoma_cli.chaos_plan_conv) None
         & info [ "plan" ] ~docv:"FILE"
             ~doc:"Replay a stored chaos plan instead of generating one per seed.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the seeded chaos invariant harness: guarded journeys, bookings and cash \
          purchases under deterministic partition/loss/crash/degradation schedules.  \
          Exits non-zero if any invariant is violated.")
    Term.(ret
            (const run $ seeds $ seed $ sites $ horizon $ unguarded $ partition_rate
            $ jobs $ json $ json_out $ dump $ plan))

(* --- demo: a traced journey ------------------------------------------------ *)

let demo_cmd =
  let run trace_out =
    let code = {|
      log "hello from [host]"
      folder put TRAIL [host]
      if {[folder size TRAIL] < 4} {
        set next ""
        foreach n [neighbors] {
          if {![folder contains TRAIL $n]} { set next $n; break }
        }
        folder set CODE [selfcode]
        jump $next
      } else {
        log "journey complete, filing trail"
        meet filer
      }
    |} in
    let net = Netsim.Net.create ~trace:true (Netsim.Topology.ring 4) in
    let k = Tacoma_core.Kernel.create net in
    launch_script k code;
    (* a rear-guarded journey through the same ring, with site 2 down when
       the agent first heads there: the hop is lost, the rear guard times
       out and relaunches the snapshot, and the trace shows the relaunch
       joining the same causal tree *)
    let visits = ref [] in
    let j =
      Guard.Escort.guarded_journey k
        ~config:{ Guard.Escort.default_config with ack_timeout = 2.0; retry_period = 2.0 }
        ~id:"demo" ~itinerary:[ 0; 1; 2; 3 ]
        ~work:(fun _ctx ~hop _bc -> visits := hop :: !visits)
        (Tacoma_core.Briefcase.create ())
    in
    Netsim.Chaos.crash_for net ~site:2 ~at:0.0 ~downtime:5.0;
    Netsim.Net.run ~until:60.0 net;
    Obs.Export.pp_events fmt (recorded_events net);
    List.iter
      (fun site ->
        let trail =
          Tacoma_core.Cabinet.elements (Tacoma_core.Kernel.cabinet k site) "TRAIL"
        in
        if trail <> [] then
          Format.fprintf fmt "trail filed at site %d: %s@." site (String.concat " -> " trail))
      (Netsim.Net.sites net);
    let s = Guard.Escort.stats j in
    Format.fprintf fmt "guarded journey: hops 0-%d done, %d relaunch(es), completed=%b@."
      s.Guard.Escort.hops_done s.Guard.Escort.relaunches s.Guard.Escort.completed;
    write_trace_out net trace_out
  in
  let open Cmdliner in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Also write the run as a Chrome trace-event JSON file.")
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Run a traced 4-site agent journey plus a rear-guarded journey with a crash.")
    Term.(const run $ trace_out)

let () =
  let open Cmdliner in
  let info =
    Cmd.info "tacoma" ~version:"1.0.0"
      ~doc:"TACOMA mobile agents: experiments, agent runner, flight recorder and demos."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ exp_cmd; run_script_cmd; trace_cmd; metrics_cmd; chaos_cmd; demo_cmd ]))
