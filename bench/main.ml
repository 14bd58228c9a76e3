(* Bechamel micro-benchmarks: one per experiment (the operation whose cost
   drives that experiment's result), plus the kernel primitives.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

module Folder = Tacoma_core.Folder
module Briefcase = Tacoma_core.Briefcase
module Cabinet = Tacoma_core.Cabinet
module Kernel = Tacoma_core.Kernel
module Net = Netsim.Net
module Topology = Netsim.Topology

let elements n = List.init n (fun i -> Printf.sprintf "element-%06d-%s" i (String.make 32 'x'))

(* E1/E7: migration cost is dominated by briefcase serialisation *)
let bench_briefcase_serialize =
  let bc = Briefcase.create () in
  Folder.replace (Briefcase.folder bc "RESULTS") (elements 100);
  Test.make ~name:"e1/e7 briefcase serialize (100 x ~50B)"
    (Staged.stage (fun () -> ignore (Briefcase.serialize bc)))

let bench_briefcase_deserialize =
  let bc = Briefcase.create () in
  Folder.replace (Briefcase.folder bc "RESULTS") (elements 100);
  let wire = Briefcase.serialize bc in
  Test.make ~name:"e1/e7 briefcase deserialize"
    (Staged.stage (fun () -> ignore (Briefcase.deserialize wire)))

(* E2: each flooding step is a TScript evaluation *)
let bench_interp_eval =
  let code = "set s 0; foreach x {1 2 3 4 5 6 7 8} { set s [expr {$s + $x}] }" in
  Test.make ~name:"e2 tscript eval (8-iteration loop)"
    (Staged.stage (fun () ->
         let it = Tscript.Interp.create () in
         ignore (Tscript.Interp.eval it code)))

(* E3: the two membership structures *)
let bench_folder_contains =
  let f = Folder.of_list (elements 1024) in
  Test.make ~name:"e3 folder contains (1024, scan)"
    (Staged.stage (fun () -> ignore (Folder.contains f "absent")))

let bench_cabinet_contains =
  let c = Cabinet.create () in
  Cabinet.replace c "F" (elements 1024);
  Test.make ~name:"e3 cabinet contains (1024, hash)"
    (Staged.stage (fun () -> ignore (Cabinet.contains c "F" "absent")))

(* E4: cash validation *)
let bench_mint_validate =
  let mint = Cash.Mint.create ~secret:"bench" () in
  Test.make ~name:"e4 mint issue + validate"
    (Staged.stage (fun () ->
         let bill = Cash.Mint.issue mint ~amount:100 in
         ignore (Cash.Mint.validate_and_reissue mint bill)))

(* E5: a broker decision over a large candidate set *)
let bench_policy_choose =
  let rng = Tacoma_util.Rng.create 5L in
  let cands =
    List.init 64 (fun i ->
        {
          Broker.Policy.provider = Printf.sprintf "p%d" i;
          host = "h";
          capacity = float_of_int (1 + (i mod 4));
          load = float_of_int (i mod 7);
          report_age = 0.1;
        })
  in
  let rr = ref 0 in
  Test.make ~name:"e5 policy choose weighted (64 candidates)"
    (Staged.stage (fun () ->
         ignore (Broker.Policy.choose Broker.Policy.Weighted ~rng ~rr_counter:rr cands)))

(* E6: the rear guard's snapshot (deep copy + serialise) *)
let bench_guard_snapshot =
  let bc = Briefcase.create () in
  Folder.replace (Briefcase.folder bc "STATE") (elements 64);
  Test.make ~name:"e6 guard snapshot (copy + stash)"
    (Staged.stage (fun () ->
         let carrier = Briefcase.create () in
         Guard.Folder_stash.put carrier (Briefcase.copy bc)))

(* E7: a complete simulated 4-hop tcp journey, end to end *)
let bench_journey =
  Test.make ~name:"e7 full 4-hop tcp journey (whole sim)"
    (Staged.stage (fun () ->
         let net = Net.create (Topology.line 5) in
         let k = Kernel.create net in
         Kernel.register_native k "hopper" (fun ctx bc ->
             let left =
               Option.value ~default:0
                 (Option.bind (Briefcase.find_opt bc "LEFT") int_of_string_opt)
             in
             if left > 0 then begin
               Briefcase.set bc "LEFT" (string_of_int (left - 1));
               Kernel.migrate ctx.Kernel.kernel ~src:ctx.Kernel.site
                 ~dst:(ctx.Kernel.site + 1) ~contact:"hopper" ~transport:Kernel.Tcp bc
             end);
         let bc = Briefcase.create () in
         Briefcase.set bc "LEFT" "4";
         Kernel.launch k ~site:0 ~contact:"hopper" bc;
         Net.run net))

(* E8: the expert system over a day of readings *)
let bench_stormcast_predict =
  let field =
    Apps.Weather.generate ~rng:(Tacoma_util.Rng.create 3L) ~stations:4 ~hours:24 ()
  in
  let readings =
    Array.to_list field.Apps.Weather.readings |> List.concat_map Array.to_list
  in
  Test.make ~name:"e8 stormcast predict (96 readings)"
    (Staged.stage (fun () -> ignore (Apps.Stormcast.predict readings)))

(* interpreter-hot paths: the per-site CPU cost every agent activation pays.
   These three shapes dominate loop-heavy agents — condition re-evaluation,
   proc-call frames, and string/list growth — and are the paths the
   compiled-expr cache and lazy frames target. *)
let bench_interp_while_expr =
  let code =
    "set i 0; set s 0; while {$i < 1000} {set s [expr {$s + $i}]; incr i}; set s"
  in
  Test.make ~name:"interp while+expr loop (1000 iterations)"
    (Staged.stage (fun () ->
         let it = Tscript.Interp.create () in
         ignore (Tscript.Interp.eval it code)))

let bench_interp_proc_fanout =
  let code =
    "proc step {x} {expr {$x + 1}}; set s 0; set i 0; \
     while {$i < 500} {set s [step $s]; incr i}; set s"
  in
  Test.make ~name:"interp proc fan-out (500 calls)"
    (Staged.stage (fun () ->
         let it = Tscript.Interp.create () in
         ignore (Tscript.Interp.eval it code)))

let bench_interp_string_growth =
  let code =
    "set s {}; set l {}; set i 0; \
     while {$i < 200} {append s abcdefgh; lappend l $i; incr i}; \
     list [string length $s] [llength $l]"
  in
  Test.make ~name:"interp append/lappend growth (200 rounds)"
    (Staged.stage (fun () ->
         let it = Tscript.Interp.create () in
         ignore (Tscript.Interp.eval it code)))

(* Value conversions: what agent-tour's record loop does with the values
   [split], [lindex], [expr] and [incr] hand each other.  The records arrive
   as one string, as [cabinet list DATA] returns them. *)
let records =
  String.concat " " (List.init 60 (fun r -> Printf.sprintf "r%d=%d" r (r * 7919 mod 100_000)))

let bench_interp_split_lindex =
  let code =
    "set s 0; foreach rec $recs {set kv [split $rec =]; incr s [lindex $kv 1]}; set s"
  in
  Test.make ~name:"interp split+lindex loop (60 records)"
    (Staged.stage (fun () ->
         let it = Tscript.Interp.create () in
         Tscript.Interp.set_var it "recs" records;
         ignore (Tscript.Interp.eval it code)))

let bench_interp_incr =
  let code = "set n 0; set i 0; while {$i < 1000} {incr n 7919; incr i}; set n" in
  Test.make ~name:"interp incr counter loop (1000 iterations)"
    (Staged.stage (fun () ->
         let it = Tscript.Interp.create () in
         ignore (Tscript.Interp.eval it code)))

let bench_interp_proc_int_arg =
  let code =
    "proc f {x} {expr {($x * 31 + 7) % 1009}}; set s 0; \
     for {set i 0} {$i < 500} {incr i} {set s [f $i]}; set s"
  in
  Test.make ~name:"interp proc call with an int argument (500 calls)"
    (Staged.stage (fun () ->
         let it = Tscript.Interp.create () in
         ignore (Tscript.Interp.eval it code)))

(* language substrates added beyond the minimum: regex and arrays *)
let bench_regex_search =
  let re = Tscript.Regex.compile_exn "(\\w+)@(\\w+)" in
  let subject = "lorem ipsum dolor contact dag@cornell sit amet" in
  Test.make ~name:"tscript regexp search with captures"
    (Staged.stage (fun () -> ignore (Tscript.Regex.search re subject)))

let bench_interp_array =
  let code = "for {set i 0} {$i < 20} {incr i} {set a($i) $i}; array size a" in
  Test.make ~name:"tscript array fill (20 elements)"
    (Staged.stage (fun () ->
         let it = Tscript.Interp.create () in
         ignore (Tscript.Interp.eval it code)))

let bench_itinerary_plan =
  let net = Net.create (Topology.grid 5 5) in
  let k = Kernel.create net in
  let sites = List.init 24 (fun i -> i + 1) in
  Test.make ~name:"core itinerary plan (24 stops on a 5x5 grid)"
    (Staged.stage (fun () -> ignore (Tacoma_core.Itinerary.plan k ~from:0 sites)))

let bench_fuel_admission =
  let mint = Cash.Mint.create ~secret:"bench-fuel" () in
  Test.make ~name:"e4c fuel admission (grant + redeem)"
    (Staged.stage (fun () ->
         let bc = Briefcase.create () in
         Cash.Fuel.grant mint bc ~cents:5;
         let folder = Briefcase.folder bc Cash.Fuel.fuel_folder in
         match Folder.pop folder with
         | Some wire -> (
           match Cash.Ecu.of_wire wire with
           | Ok bill -> ignore (Cash.Mint.redeem mint bill)
           | Error _ -> ())
         | None -> ()))

(* kernel primitives *)
let bench_meet =
  let net = Net.create (Topology.line 1) in
  let k = Kernel.create net in
  Kernel.register_native k "echo" (fun _ bc -> Briefcase.set bc "OUT" "1");
  let bc = Briefcase.create () in
  Test.make ~name:"kernel meet (native, local)"
    (Staged.stage (fun () -> Kernel.launch k ~site:0 ~contact:"echo" bc; Net.run net))

let bench_engine =
  Test.make ~name:"netsim 1000 events through the queue"
    (Staged.stage (fun () ->
         let e = Netsim.Engine.create () in
         for i = 1 to 1000 do
           ignore (Netsim.Engine.schedule e ~after:(float_of_int i) ignore)
         done;
         Netsim.Engine.run e))

(* The message path: what one E5 load report costs.  A message carries a
   briefcase snapshot, not bytes, so the codec rows price what storing a
   report would cost; the delivery row prices the path itself. *)
let e5_report () =
  let bc = Briefcase.create () in
  List.iter
    (fun (name, v) -> Briefcase.set bc name v)
    [
      ("OP", "report");
      ("PROVIDER", "prov-3");
      ("SERVICE", "compute");
      ("HOST", "site-4");
      ("CAPACITY", "2.");
      ("LOAD", "3");
    ];
  bc

let bench_report_serialize =
  let bc = e5_report () in
  Test.make ~name:"core briefcase serialize (E5 report, 6 folders)"
    (Staged.stage (fun () -> ignore (Briefcase.serialize bc)))

let bench_report_deserialize =
  let wire = Briefcase.serialize (e5_report ()) in
  Test.make ~name:"core briefcase deserialize (E5 report, 6 folders)"
    (Staged.stage (fun () -> ignore (Briefcase.deserialize wire)))

(* The same report end to end, as E5's load monitors send it: the snapshot,
   the network's send path, delivery and the native activation it starts. *)
let bench_report_delivery =
  let net = Net.create (Topology.star 1) in
  let k = Kernel.create net in
  Kernel.register_native k ~site:0 "broker" (fun _ bc ->
      ignore (Sys.opaque_identity (Briefcase.find_opt bc "LOAD")));
  let bc = e5_report () in
  Test.make ~name:"core report delivery (E5 report: send -> deliver -> native activation)"
    (Staged.stage (fun () ->
         Kernel.send_briefcase k ~src:1 ~dst:0 ~contact:"broker" bc;
         Net.run net))

(* One E5 load-monitor tick as a whole: the monitor sets LOAD on its report,
   the kernel snapshots and delivers it, and the broker refreshes the
   provider's entry.  Each run advances the simulation by one period, so it
   fires one tick and the delivery of the previous tick's report. *)
let bench_report_tick =
  let net = Net.create (Topology.star 1) in
  let k = Kernel.create net in
  let b = Broker.Matchmaker.install k ~site:0 ~name:"broker" () in
  let p = Broker.Provider.install k ~site:1 ~name:"prov-3" ~service:"compute" ~capacity:2.0 () in
  Broker.Matchmaker.register_provider b p;
  Broker.Provider.start_load_monitor k p ~brokers:[ (0, "broker") ] ~period:1.0;
  Test.make ~name:"core E5 report tick (monitor -> send -> broker upsert)"
    (Staged.stage (fun () -> Net.run ~until:(Net.now net +. 1.0) net))

let bench_metrics_incr =
  let m = Obs.Metrics.create () in
  Test.make ~name:"obs metrics incr by name (labelled)"
    (Staged.stage (fun () ->
         Obs.Metrics.incr m ~labels:[ ("link", "0-1") ] ~by:1000 "net.link.bytes"))

let bench_metrics_bump =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.counter_handle m ~labels:[ ("link", "0-1") ] "net.link.bytes" in
  Test.make ~name:"obs metrics bump (handle)"
    (Staged.stage (fun () -> Obs.Metrics.bump h 1000))

let bench_schedule_fire =
  let e = Netsim.Engine.create () in
  Test.make ~name:"netsim schedule+fire"
    (Staged.stage (fun () ->
         ignore (Netsim.Engine.schedule e ~after:1.0 ignore);
         ignore (Netsim.Engine.step e)))

let bench_schedule_cancel =
  let e = Netsim.Engine.create () in
  Test.make ~name:"netsim schedule+cancel"
    (Staged.stage (fun () -> Netsim.Engine.cancel (Netsim.Engine.schedule e ~after:1.0 ignore)))

let bench_sha256 =
  let payload = String.make 1024 'h' in
  Test.make ~name:"util sha256 (1 KiB)"
    (Staged.stage (fun () -> ignore (Tacoma_util.Sha256.digest payload)))

(* E9: the cache's per-hop work — digest the CODE folder, publish, resolve *)
let bench_codecache_roundtrip =
  let module Codecache = Tacoma_core.Codecache in
  let code = [ String.make 4096 'c' ] in
  let cache = Codecache.create Codecache.default_config in
  Test.make ~name:"e9 codecache digest + insert + find (4 KiB)"
    (Staged.stage (fun () ->
         let dg = Codecache.digest code in
         ignore (Codecache.insert cache ~digest:dg code);
         ignore (Codecache.find_opt cache ~digest:dg)))

(* E9: the same work on a warm hop — the code is what the cache just
   resolved, so digest_at reuses the digest instead of hashing *)
let bench_codecache_warm =
  let module Codecache = Tacoma_core.Codecache in
  let code = [ String.make 4096 'c' ] in
  let cache = Codecache.create Codecache.default_config in
  ignore (Codecache.insert cache ~digest:(Codecache.digest code) code);
  Test.make ~name:"e9 codecache digest_at + insert + find, warm (4 KiB)"
    (Staged.stage (fun () ->
         let dg = Codecache.digest_at cache code in
         ignore (Codecache.insert cache ~digest:dg code);
         ignore (Codecache.find_opt cache ~digest:dg)))

(* E9: the revisiting journey the experiment measures, cache on *)
let bench_cached_journey =
  Test.make ~name:"e9 8-hop revisiting tcp journey, cache on (whole sim)"
    (Staged.stage (fun () ->
         let net = Net.create (Topology.ring 4) in
         let config =
           { Kernel.default_config with cache = Some Kernel.default_cache_config }
         in
         let k = Kernel.create ~config net in
         Kernel.register_native k "hopper" (fun ctx bc ->
             match Folder.pop (Briefcase.folder bc "ITINERARY") with
             | None -> ()
             | Some next ->
               Kernel.migrate ctx.Kernel.kernel ~src:ctx.Kernel.site ~dst:(int_of_string next)
                 ~contact:"hopper" ~transport:Kernel.Tcp bc);
         let bc = Briefcase.create () in
         Folder.replace (Briefcase.folder bc "ITINERARY")
           [ "1"; "2"; "3"; "0"; "1"; "2"; "3"; "0" ];
         Briefcase.set bc Briefcase.code_folder (String.make 4096 'c');
         Kernel.launch k ~site:0 ~contact:"hopper" bc;
         Net.run net))

let all_benches =
    [
      bench_briefcase_serialize;
      bench_briefcase_deserialize;
      bench_interp_eval;
      bench_interp_while_expr;
      bench_interp_proc_fanout;
      bench_interp_string_growth;
      bench_interp_split_lindex;
      bench_interp_incr;
      bench_interp_proc_int_arg;
      bench_folder_contains;
      bench_cabinet_contains;
      bench_mint_validate;
      bench_policy_choose;
      bench_guard_snapshot;
      bench_journey;
      bench_stormcast_predict;
      bench_regex_search;
      bench_interp_array;
      bench_itinerary_plan;
      bench_fuel_admission;
      bench_meet;
      bench_engine;
      bench_report_serialize;
      bench_report_deserialize;
      bench_report_delivery;
      bench_report_tick;
      bench_metrics_incr;
      bench_metrics_bump;
      bench_schedule_fire;
      bench_schedule_cancel;
      bench_sha256;
      bench_codecache_roundtrip;
      bench_codecache_warm;
      bench_cached_journey;
    ]

(* machine-readable results: {"benchmark name": ns_per_run, ...} — consumed
   by CI (artifact per run) and by BENCH_interp.json's before/after record *)
let write_json path rows =
  let oc = open_out path in
  let escape s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  output_string oc "{\n";
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "  \"%s\": %.1f%s\n" (escape name) est
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc

(* run one group of tests to completion and return (name, ns/run) rows *)
let measure cfg tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  !rows

(* --jobs N: one pool task per benchmark.  Each staged closure only touches
   state built for that benchmark, so samples can run concurrently; the
   result *structure* (names, row order after the sort) is identical to
   serial — only the timings themselves feel the sharing of cores, which is
   why CI measures with --jobs 1 and uses --jobs for smoke runs. *)
let run quick json_out jobs =
  let quota = if quick then Time.millisecond 50. else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) () in
  let rows =
    if jobs = 1 then measure cfg (Test.make_grouped ~name:"tacoma" all_benches)
    else
      Tacoma_util.Pool.with_pool ~jobs (fun pool ->
          Tacoma_util.Pool.map pool
            (fun bench -> measure cfg (Test.make_grouped ~name:"tacoma" [ bench ]))
            all_benches)
      |> List.concat
  in
  let rows = List.sort compare rows in
  Printf.printf "%-50s | %15s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter (fun (name, est) -> Printf.printf "%-50s | %15.1f\n" name est) rows;
  Option.iter (fun path -> write_json path rows) json_out

let () =
  let open Cmdliner in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:
               "One short sample per benchmark: a smoke run proving every benchmarked path \
                still executes, not a measurement.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the rows as JSON to FILE.")
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "bench" ~doc:"Micro-benchmarks of the TACOMA layers, in ns/run.")
          Term.(const run $ quick $ json_out $ Tacoma_cli.jobs_term)))
