(* Tests for rear-guard fault tolerance (paper §5): journeys complete
   without failures, guards relaunch through crashes, guards terminate when
   released, cycles and fan-out work, and the unguarded baseline loses its
   computation. *)

module Escort = Guard.Escort
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Net = Netsim.Net
module Topology = Netsim.Topology
module Chaos = Netsim.Chaos

let check = Alcotest.check

let mk ?(n = 5) () =
  let net = Net.create (Topology.full_mesh n) in
  let k = Kernel.create net in
  (net, k)

let trail_work visits ctx ~hop bc =
  ignore bc;
  visits := (hop, ctx.Kernel.site) :: !visits

let fast_config =
  {
    Escort.ack_timeout = 1.0;
    retry_period = 1.0;
    max_relaunch = 10;
    transport = Kernel.Tcp;
    durable = false;
  }

let test_journey_completes_without_failures () =
  let net, k = mk () in
  let visits = ref [] in
  let final_bc = ref None in
  let j =
    Escort.guarded_journey k ~config:fast_config ~id:"j1" ~itinerary:[ 0; 1; 2; 3 ]
      ~work:(fun ctx ~hop bc ->
        trail_work visits ctx ~hop bc;
        Folder.enqueue (Briefcase.folder bc "TRAIL") (string_of_int ctx.Kernel.site))
      ~on_complete:(fun bc -> final_bc := Some (Briefcase.copy bc))
      (Briefcase.create ())
  in
  Net.run ~until:60.0 net;
  let s = Escort.stats j in
  Alcotest.(check bool) "completed" true s.Escort.completed;
  check Alcotest.int "no relaunches needed" 0 s.Escort.relaunches;
  check Alcotest.(list (pair int int)) "hops in order"
    [ (0, 0); (1, 1); (2, 2); (3, 3) ]
    (List.rev !visits);
  match !final_bc with
  | Some bc ->
    check Alcotest.(list string) "briefcase accumulated state" [ "0"; "1"; "2"; "3" ]
      (Folder.to_list (Briefcase.folder bc "TRAIL"))
  | None -> Alcotest.fail "no completion briefcase"

let test_guard_relaunches_after_crash () =
  let net, k = mk () in
  let visits = ref [] in
  (* site 2 is down when the agent tries to hop there; it restarts later and
     the rear guard at site 1 relaunches the agent *)
  Chaos.crash_for net ~site:2 ~at:0.0 ~downtime:6.0;
  let j =
    Escort.guarded_journey k ~config:fast_config ~id:"j2" ~itinerary:[ 0; 1; 2; 3 ]
      ~work:(trail_work visits) (Briefcase.create ())
  in
  Net.run ~until:120.0 net;
  let s = Escort.stats j in
  Alcotest.(check bool) "completed despite crash" true s.Escort.completed;
  Alcotest.(check bool) "guard relaunched" true (s.Escort.relaunches > 0);
  (* hop 2 ran exactly once in the end (seen-record suppressed duplicates) *)
  check Alcotest.int "hop 2 executed once" 1
    (List.length (List.filter (fun (h, _) -> h = 2) !visits))

let test_crash_during_work_recovers () =
  let net, k = mk () in
  let attempts = ref 0 in
  (* work at site 2 takes 5 s; the site crashes 1 s into the first attempt *)
  Chaos.crash_for net ~site:2 ~at:3.0 ~downtime:4.0;
  let j =
    Escort.guarded_journey k
      ~config:{ fast_config with ack_timeout = 8.0 }
      ~id:"j3" ~itinerary:[ 0; 1; 2 ]
      ~work:(fun ctx ~hop _ ->
        if hop = 2 then begin
          incr attempts;
          Kernel.sleep ctx 5.0
        end)
      (Briefcase.create ())
  in
  Net.run ~until:200.0 net;
  let s = Escort.stats j in
  Alcotest.(check bool) "completed" true s.Escort.completed;
  Alcotest.(check bool) "work re-attempted" true (!attempts >= 2)

let test_unguarded_journey_lost_on_crash () =
  let net, k = mk () in
  Chaos.crash_for net ~site:2 ~at:0.0 ~downtime:6.0;
  let j =
    Escort.unguarded_journey k ~id:"u1" ~itinerary:[ 0; 1; 2; 3 ]
      ~work:(fun _ ~hop:_ _ -> ())
      (Briefcase.create ())
  in
  Net.run ~until:120.0 net;
  let s = Escort.stats j in
  Alcotest.(check bool) "lost" false s.Escort.completed;
  check Alcotest.int "stopped at hop 1" 1 s.Escort.hops_done

let test_unguarded_journey_completes_without_failures () =
  let net, k = mk () in
  let j =
    Escort.unguarded_journey k ~id:"u2" ~itinerary:[ 0; 1; 2 ]
      ~work:(fun _ ~hop:_ _ -> ())
      (Briefcase.create ())
  in
  Net.run ~until:60.0 net;
  Alcotest.(check bool) "completed" true (Escort.stats j).Escort.completed

let test_cyclic_itinerary () =
  let net, k = mk ~n:3 () in
  let visits = ref [] in
  let j =
    Escort.guarded_journey k ~config:fast_config ~id:"cyc"
      ~itinerary:[ 0; 1; 2; 0; 1; 2 ] (* two full laps *)
      ~work:(trail_work visits) (Briefcase.create ())
  in
  Net.run ~until:120.0 net;
  Alcotest.(check bool) "cycle completed" true (Escort.stats j).Escort.completed;
  check Alcotest.int "six stops" 6 (List.length !visits);
  check Alcotest.(list int) "revisits allowed" [ 0; 1; 2; 0; 1; 2 ]
    (List.map snd (List.rev !visits))

let test_cycle_with_crash () =
  let net, k = mk ~n:3 () in
  Chaos.crash_for net ~site:1 ~at:0.05 ~downtime:5.0;
  let j =
    Escort.guarded_journey k ~config:fast_config ~id:"cyc2" ~itinerary:[ 0; 1; 0; 1 ]
      ~work:(fun _ ~hop:_ _ -> ())
      (Briefcase.create ())
  in
  Net.run ~until:200.0 net;
  Alcotest.(check bool) "completed" true (Escort.stats j).Escort.completed

let test_fanout_all_branches () =
  let net, k = mk ~n:7 () in
  let all_done = ref false in
  let branches = [ [ 0; 1; 2 ]; [ 0; 3; 4 ]; [ 0; 5; 6 ] ] in
  let js =
    Escort.fanout k ~config:fast_config ~id:"fan" ~branches
      ~work:(fun _ ~hop:_ _ -> ())
      ~on_all_complete:(fun () -> all_done := true)
      (Briefcase.create ())
  in
  Net.run ~until:120.0 net;
  Alcotest.(check bool) "all branches complete" true !all_done;
  List.iter
    (fun j -> Alcotest.(check bool) "branch done" true (Escort.stats j).Escort.completed)
    js

let test_fanout_with_crash_still_completes () =
  let net, k = mk ~n:7 () in
  let all_done = ref false in
  Chaos.crash_for net ~site:3 ~at:0.0 ~downtime:5.0;
  ignore
    (Escort.fanout k ~config:fast_config ~id:"fan2"
       ~branches:[ [ 0; 1; 2 ]; [ 0; 3; 4 ] ]
       ~work:(fun _ ~hop:_ _ -> ())
       ~on_all_complete:(fun () -> all_done := true)
       (Briefcase.create ()));
  Net.run ~until:200.0 net;
  Alcotest.(check bool) "fan-out survived branch crash" true !all_done

let test_guard_gives_up_after_max_relaunch () =
  let net, k = mk () in
  (* site 2 never comes back *)
  Chaos.crash_for net ~site:2 ~at:0.0 ~downtime:Float.infinity;
  let j =
    Escort.guarded_journey k
      ~config:{ fast_config with max_relaunch = 3 }
      ~id:"dead" ~itinerary:[ 0; 1; 2 ]
      ~work:(fun _ ~hop:_ _ -> ())
      (Briefcase.create ())
  in
  Net.run ~until:300.0 net;
  let s = Escort.stats j in
  Alcotest.(check bool) "not completed" false s.Escort.completed;
  check Alcotest.int "bounded relaunches" 3 s.Escort.relaunches

(* double failure: the guard's site AND the agent's site crash together.
   Plain guards die with their site; durable guards are resurrected from the
   flushed cabinet checkpoint when the site restarts. *)
let double_failure_run ~durable =
  let net, k = mk () in
  (* agent works at site 2 for 5s starting ~0s; crash the worker at t=2 and
     the guard's site (1) at t=2.5, both restart *)
  Chaos.crash_for net ~site:2 ~at:2.0 ~downtime:4.0;
  Chaos.crash_for net ~site:1 ~at:2.5 ~downtime:4.0;
  let j =
    Escort.guarded_journey k
      ~config:{ fast_config with ack_timeout = 8.0; durable }
      ~id:(Printf.sprintf "dbl-%b" durable)
      ~itinerary:[ 0; 1; 2 ]
      ~work:(fun ctx ~hop _ -> if hop = 2 then Kernel.sleep ctx 5.0)
      (Briefcase.create ())
  in
  Net.run ~until:300.0 net;
  Escort.stats j

let test_double_failure_loses_plain_guard () =
  let s = double_failure_run ~durable:false in
  Alcotest.(check bool) "plain guard lost with its site" false s.Escort.completed

let test_double_failure_survived_by_durable_guard () =
  let s = double_failure_run ~durable:true in
  Alcotest.(check bool) "durable guard resurrected and relaunched" true s.Escort.completed;
  Alcotest.(check bool) "via relaunch" true (s.Escort.relaunches > 0)

let test_durable_checkpoint_removed_on_release () =
  let net, k = mk () in
  let j =
    Escort.guarded_journey k
      ~config:{ fast_config with durable = true }
      ~id:"ckpt" ~itinerary:[ 0; 1; 2 ]
      ~work:(fun _ ~hop:_ _ -> ())
      (Briefcase.create ())
  in
  Net.run ~until:60.0 net;
  Alcotest.(check bool) "completed" true (Escort.stats j).Escort.completed;
  (* all checkpoints must be released: a later restart resurrects nothing *)
  List.iter
    (fun site ->
      check Alcotest.(list (pair string string)) "no leftover checkpoints" []
        (Tacoma_core.Cabinet.kv_bindings (Kernel.cabinet k site) "ESCORT-CKPT"))
    [ 0; 1 ];
  Chaos.crash_for net ~site:1 ~at:70.0 ~downtime:1.0;
  Net.run ~until:100.0 net;
  check Alcotest.int "no ghost relaunches after restart" 0 (Escort.stats j).Escort.relaunches

let test_journey_straddles_healed_partition () =
  (* line 0-1-2-3: cutting (1,2) bisects the net exactly when the agent
     tries to hop across; migrations drop with the distinct "partition"
     reason and the rear guard retries until the cut heals *)
  let net = Net.create ~seed:11L (Topology.line 4) in
  let k = Kernel.create net in
  Chaos.apply net [ Chaos.Cut { links = [ (1, 2) ]; at = 3.5; duration = 8.0; label = "mid" } ];
  let j =
    Escort.guarded_journey k ~config:fast_config ~id:"straddle" ~itinerary:[ 0; 1; 2; 3 ]
      ~work:(fun ctx ~hop:_ _ -> Kernel.sleep ctx 2.0)
      (Briefcase.create ())
  in
  Net.run ~until:120.0 net;
  let s = Escort.stats j in
  Alcotest.(check bool) "completed across the healed partition" true s.Escort.completed;
  Alcotest.(check bool) "guard retried through the cut" true (s.Escort.relaunches >= 1);
  Alcotest.(check bool) "drops carry the partition reason" true
    (Obs.Metrics.counter (Net.metrics net) ~labels:[ ("reason", "partition") ] "net.drops"
    >= 1);
  check Alcotest.int "no duplicate completions" 0 s.Escort.duplicate_completions

let test_partition_delayed_release_resent () =
  (* hop 1's release is dropped by a short partition between site 1 and its
     guard at site 0; once the cut heals, the guard's relaunch reaches site 1,
     finds the flushed done-record and re-sends the release instead of
     re-running the finished hop — so the hop still executes exactly once *)
  let net = Net.create ~seed:12L (Topology.line 3) in
  let k = Kernel.create net in
  Chaos.apply net [ Chaos.Cut { links = [ (0, 1) ]; at = 0.9; duration = 1.2; label = "rel" } ];
  let completions = ref 0 in
  let hop1_runs = ref 0 in
  let j =
    Escort.guarded_journey k ~config:fast_config ~id:"resend" ~itinerary:[ 0; 1; 2 ]
      ~work:(fun ctx ~hop _ ->
        if hop = 1 then begin
          incr hop1_runs;
          Kernel.sleep ctx 1.0
        end;
        if hop = 2 then Kernel.sleep ctx 10.0)
      ~on_complete:(fun _ -> incr completions)
      (Briefcase.create ())
  in
  Net.run ~until:120.0 net;
  let s = Escort.stats j in
  Alcotest.(check bool) "completed" true s.Escort.completed;
  check Alcotest.int "on_complete exactly once" 1 !completions;
  check Alcotest.int "hop 1 executed once despite the relaunch" 1 !hop1_runs;
  check Alcotest.int "no duplicate completions" 0 s.Escort.duplicate_completions;
  Alcotest.(check bool) "guard relaunched while the release was lost" true
    (s.Escort.relaunches >= 1);
  Alcotest.(check bool) "release re-sent from the done-record" true
    (Obs.Metrics.counter (Kernel.metrics k) "guard.releases_resent" >= 1)

let test_duplicate_id_rejected () =
  let _, k = mk () in
  let work _ ~hop:_ _ = () in
  ignore
    (Escort.guarded_journey k ~config:fast_config ~id:"dup" ~itinerary:[ 0; 1 ] ~work
       (Briefcase.create ()));
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Escort.guarded_journey: duplicate journey id") (fun () ->
      ignore
        (Escort.guarded_journey k ~config:fast_config ~id:"dup" ~itinerary:[ 0; 1 ] ~work
           (Briefcase.create ())))

let test_single_site_itinerary () =
  let net, k = mk () in
  let completed_bc = ref None in
  let j =
    Escort.guarded_journey k ~config:fast_config ~id:"one" ~itinerary:[ 2 ]
      ~work:(fun _ ~hop:_ bc -> Briefcase.set bc "X" "done")
      ~on_complete:(fun bc -> completed_bc := Some (Briefcase.copy bc))
      (Briefcase.create ())
  in
  Net.run ~until:10.0 net;
  Alcotest.(check bool) "completed" true (Escort.stats j).Escort.completed;
  check Alcotest.int "no guards for single stop" 0 (Escort.stats j).Escort.guards_installed;
  match !completed_bc with
  | Some bc -> check Alcotest.(option string) "work ran" (Some "done") (Briefcase.find_opt bc "X")
  | None -> Alcotest.fail "no completion"

let () =
  Alcotest.run "guard"
    [
      ( "journeys",
        [
          Alcotest.test_case "completes cleanly" `Quick test_journey_completes_without_failures;
          Alcotest.test_case "single site" `Quick test_single_site_itinerary;
          Alcotest.test_case "duplicate id" `Quick test_duplicate_id_rejected;
          Alcotest.test_case "unguarded completes" `Quick
            test_unguarded_journey_completes_without_failures;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "relaunch after crash" `Quick test_guard_relaunches_after_crash;
          Alcotest.test_case "crash during work" `Quick test_crash_during_work_recovers;
          Alcotest.test_case "unguarded lost" `Quick test_unguarded_journey_lost_on_crash;
          Alcotest.test_case "gives up eventually" `Quick test_guard_gives_up_after_max_relaunch;
        ] );
      ( "hard-cases",
        [
          Alcotest.test_case "cyclic itinerary" `Quick test_cyclic_itinerary;
          Alcotest.test_case "cycle with crash" `Quick test_cycle_with_crash;
          Alcotest.test_case "fan-out" `Quick test_fanout_all_branches;
          Alcotest.test_case "fan-out with crash" `Quick test_fanout_with_crash_still_completes;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "journey straddles healed partition" `Quick
            test_journey_straddles_healed_partition;
          Alcotest.test_case "partition-delayed release re-sent" `Quick
            test_partition_delayed_release_resent;
        ] );
      ( "durable-guards",
        [
          Alcotest.test_case "double failure kills plain guard" `Quick
            test_double_failure_loses_plain_guard;
          Alcotest.test_case "durable guard survives double failure" `Quick
            test_double_failure_survived_by_durable_guard;
          Alcotest.test_case "checkpoints cleaned on release" `Quick
            test_durable_checkpoint_removed_on_release;
        ] );
    ]
