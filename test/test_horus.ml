(* Tests for the Horus-like group membership substrate: views, failure
   detection, coordinator succession and rejoin. *)

module Net = Netsim.Net
module Topology = Netsim.Topology
module Group = Horus.Group
module View = Horus.View

let check = Alcotest.check

let mk ?(n = 5) () =
  let net = Net.create (Topology.full_mesh n) in
  let members = List.init n Fun.id in
  let g = Group.create net ~name:"g" ~members in
  (net, g, members)

let view_exn g s =
  match Group.view_at g s with Some v -> v | None -> Alcotest.failf "site %d has no view" s

(* every listed site holds the same view as site [like] *)
let check_same_view g ~like sites =
  let v = view_exn g like in
  List.iter
    (fun s ->
      let v' = view_exn g s in
      check Alcotest.int "same view id" v.View.id v'.View.id;
      check Alcotest.(list int) "same membership" v.View.members v'.View.members)
    sites

(* --- views --- *)

let test_view_module () =
  let v = View.make ~id:1 ~members:[ 3; 1; 2 ] in
  check Alcotest.(list int) "sorted" [ 1; 2; 3 ] v.View.members;
  check Alcotest.(option int) "coordinator is lowest" (Some 1) (View.coordinator v);
  let v2 = View.without v 1 in
  check Alcotest.int "id bumped" 2 v2.View.id;
  check Alcotest.(option int) "new coordinator" (Some 2) (View.coordinator v2);
  let v3 = View.with_member v2 0 in
  Alcotest.(check bool) "member added" true (View.mem v3 0);
  check Alcotest.int "size" 3 (View.size v3)

let test_initial_view_everywhere () =
  let _, g, members = mk () in
  List.iter
    (fun s ->
      match Group.view_at g s with
      | Some v -> check Alcotest.int "all members" 5 (View.size v)
      | None -> Alcotest.fail "no view")
    members

(* --- failure handling --- *)

let test_member_crash_view_change () =
  let net, g, _ = mk () in
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 3));
  Net.run ~until:10.0 net;
  List.iter
    (fun s ->
      match Group.view_at g s with
      | Some v ->
        Alcotest.(check bool) "3 removed" false (View.mem v 3);
        check Alcotest.int "others stay" 4 (View.size v)
      | None -> Alcotest.fail "no view")
    [ 0; 1; 2; 4 ]

let test_coordinator_crash_succession () =
  let net, g, _ = mk () in
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 0));
  Net.run ~until:15.0 net;
  List.iter
    (fun s ->
      match Group.view_at g s with
      | Some v ->
        check Alcotest.(option int) "site 1 takes over" (Some 1) (View.coordinator v);
        Alcotest.(check bool) "0 removed" false (View.mem v 0)
      | None -> Alcotest.fail "no view")
    [ 1; 2; 3; 4 ]

let test_departed_excluded () =
  let net, g, _ = mk () in
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 3));
  ignore (Net.schedule net ~after:9.0 (fun () -> Net.restart net 3));
  (* after restart but without rejoin, 3 is not a member again *)
  Net.run ~until:12.0 net;
  check Alcotest.(option int) "restarted non-member has no view" None
    (Option.map (fun v -> v.View.id) (Group.view_at g 3));
  List.iter
    (fun s -> Alcotest.(check bool) "3 stays out" false (View.mem (view_exn g s) 3))
    [ 0; 1; 2; 4 ]

let test_rejoin_state_transfer () =
  let net, g, _ = mk () in
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 3));
  ignore
    (Net.schedule net ~after:9.0 (fun () ->
         Net.restart net 3;
         Group.rejoin g 3));
  Net.run ~until:20.0 net;
  List.iter
    (fun s -> Alcotest.(check bool) "3 back in view" true (View.mem (view_exn g s) 3))
    [ 0; 1; 2; 3; 4 ];
  (* the joiner installed the coordinator's view, not one of its own *)
  check_same_view g ~like:0 [ 1; 2; 3; 4 ]

(* each member installs each view once: the joiner takes the admitting
   view from the coordinator's ViewMsg, and no later, staler copy may
   replace it *)
let test_view_installed_once () =
  let net, g, _ = mk () in
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 3));
  ignore
    (Net.schedule net ~after:9.0 (fun () ->
         Net.restart net 3;
         Group.rejoin g 3));
  Net.run ~until:20.0 net;
  check_same_view g ~like:0 [ 1; 2; 3; 4 ];
  (* four survivors install the view without 3, all five the one with it *)
  check Alcotest.int "one install per member per view" (4 + 5)
    (Obs.Metrics.counter (Net.metrics net) ~labels:[ ("group", "g") ] "horus.view_changes")

(* Site 3 crashes at 1 s and rejoins at 9 s; [fault] disturbs the links to
   it from 9.0001 s, just after its JoinReq has left, for 50 ms.
   Whatever happens to the admitting view on the way, both sites must end
   in the one view that holds all five, each member installing each view
   once. *)
let check_admission_survives fault =
  let net, g, _ = mk () in
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 3));
  ignore
    (Net.schedule net ~after:9.0 (fun () ->
         Net.restart net 3;
         Group.rejoin g 3));
  ignore (Net.schedule net ~after:9.0001 (fun () -> fault net true));
  ignore (Net.schedule net ~after:9.0501 (fun () -> fault net false));
  Net.run ~until:20.0 net;
  check_same_view g ~like:0 [ 1; 2; 3; 4 ];
  check Alcotest.(list int) "all five members" [ 0; 1; 2; 3; 4 ] (view_exn g 3).View.members;
  check Alcotest.int "one install per member per view" (4 + 5)
    (Obs.Metrics.counter (Net.metrics net) ~labels:[ ("group", "g") ] "horus.view_changes")

(* A 50 ms loss burst drops the admitting view, so the coordinator already
   counts 3 as a member when the retried JoinReq arrives, and must answer
   it with its view.  Slowing every link of site 3 400-fold (5 ms to 2 s)
   for as long instead delivers the admitting view after that answer: a
   copy the joiner must not install again. *)
let test_lossy_admission () =
  check_admission_survives (fun net on ->
      Net.set_link_loss net 0 3 (if on then Some 0.999999 else None));
  check_admission_survives (fun net on ->
      List.iter
        (fun s -> Net.set_link_degraded net s 3 (if on then Some (400.0, 1.0) else None))
        [ 0; 1; 2; 4 ])

(* Every link to site 3 is lost from just after its first JoinReq until
   25 s, so all ten of its tries go unanswered and it installs a view of
   its own at about 19 s.  It must keep asking, and be merged back into
   the group once its links heal. *)
let test_singleton_merges_back () =
  let net, g, _ = mk () in
  let loss on =
    List.iter (fun s -> Net.set_link_loss net s 3 (if on then Some 0.999999 else None)) [ 0; 1; 2; 4 ]
  in
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 3));
  ignore
    (Net.schedule net ~after:9.0 (fun () ->
         Net.restart net 3;
         Group.rejoin g 3));
  ignore (Net.schedule net ~after:9.0001 (fun () -> loss true));
  ignore
    (Net.schedule net ~after:20.0 (fun () ->
         check Alcotest.(list int) "alone at 20 s" [ 3 ] (view_exn g 3).View.members));
  ignore (Net.schedule net ~after:25.0 (fun () -> loss false));
  Net.run ~until:60.0 net;
  check_same_view g ~like:0 [ 1; 2; 3; 4 ];
  check Alcotest.(list int) "all five members" [ 0; 1; 2; 3; 4 ] (view_exn g 3).View.members

(* Site 3 crashes again while it is still asking to be readmitted (every
   link to it is lost until 13 s).  It never held the group's view after
   its first restart, so the second rejoin must still know whom to ask:
   the members of the last view it held with others in it.  The first
   rejoin's tries die with the crash: from 12 s site 3 sends one request a
   try, not two. *)
let test_crash_while_rejoining () =
  let net = Net.create ~trace:true (Topology.full_mesh 5) in
  let g = Group.create net ~name:"g" ~members:[ 0; 1; 2; 3; 4 ] in
  let loss on =
    List.iter
      (fun s -> Net.set_link_loss net s 3 (if on then Some 0.999999 else None))
      [ 0; 1; 2; 4 ]
  in
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 3));
  ignore
    (Net.schedule net ~after:9.0 (fun () ->
         Net.restart net 3;
         Group.rejoin g 3));
  ignore (Net.schedule net ~after:9.0001 (fun () -> loss true));
  ignore (Net.schedule net ~after:11.5 (fun () -> Net.crash net 3));
  ignore
    (Net.schedule net ~after:12.0 (fun () ->
         Net.restart net 3;
         Group.rejoin g 3));
  ignore (Net.schedule net ~after:13.0 (fun () -> loss false));
  Net.run ~until:40.0 net;
  check_same_view g ~like:0 [ 1; 2; 3; 4 ];
  check Alcotest.(list int) "all five members" [ 0; 1; 2; 3; 4 ] (view_exn g 3).View.members;
  let sent_by_3 (e : Obs.Event.t) =
    e.name = "net.send" && e.site = 3 && e.time >= 12.0 && e.time < 13.0
  in
  check Alcotest.int "one join request in the second rejoin's first second" 1
    (List.length (List.filter sent_by_3 (Obs.Tracer.events (Net.recorder net))))

let test_rejoined_member_receives () =
  let net, g, _ = mk () in
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 3));
  ignore
    (Net.schedule net ~after:9.0 (fun () ->
         Net.restart net 3;
         Group.rejoin g 3));
  ignore (Net.schedule net ~after:15.0 (fun () -> Net.crash net 4));
  Net.run ~until:25.0 net;
  let v = view_exn g 3 in
  Alcotest.(check bool) "rejoined member receives the later view" false (View.mem v 4);
  Alcotest.(check bool) "and stays in it" true (View.mem v 3);
  check_same_view g ~like:0 [ 1; 2; 3 ]

let test_sole_survivor () =
  let net, g, _ = mk ~n:3 () in
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 0));
  ignore (Net.schedule net ~after:1.0 (fun () -> Net.crash net 1));
  Net.run ~until:20.0 net;
  match Group.view_at g 2 with
  | Some v ->
    check Alcotest.int "singleton view" 1 (View.size v);
    check Alcotest.(option int) "self coordinator" (Some 2) (View.coordinator v)
  | None -> Alcotest.fail "survivor lost its view"

let test_crash_storm_convergence () =
  (* a storm of crashes and restarts+rejoins; after it calms down, every
     member that is up and rejoined must agree on one view containing all
     of them, and failure detection must work again *)
  let net = Net.create (Topology.full_mesh 6) in
  let members = [ 0; 1; 2; 3; 4; 5 ] in
  let g = Group.create net ~name:"g" ~members in
  let rng = Tacoma_util.Rng.create 99L in
  (* 12 staggered crash/restart/rejoin cycles over 60 s *)
  for _ = 1 to 12 do
    let site = Tacoma_util.Rng.int rng 6 in
    let at = Tacoma_util.Rng.range_float rng 1.0 60.0 in
    let downtime = Tacoma_util.Rng.range_float rng 3.0 8.0 in
    ignore (Net.schedule net ~after:at (fun () -> Net.crash net site));
    ignore
      (Net.schedule net ~after:(at +. downtime) (fun () ->
           Net.restart net site;
           Group.rejoin g site))
  done;
  Net.run ~until:120.0 net;
  (* quiesce achieved by 120 s: compare surviving members' views *)
  let live = List.filter (fun s -> Net.site_up net s) members in
  Alcotest.(check bool) "some survivors" true (live <> []);
  let views = List.filter_map (fun s -> Group.view_at g s) live in
  (match views with
  | [] -> Alcotest.fail "no views among survivors"
  | v :: rest ->
    List.iter
      (fun v' ->
        check Alcotest.int "same view id" v.View.id v'.View.id;
        check Alcotest.(list int) "same membership" v.View.members v'.View.members)
      rest;
    List.iter
      (fun s -> Alcotest.(check bool) "every live member in the view" true (View.mem v s))
      live);
  (* a crash after the storm still yields one agreed view *)
  match List.rev live with
  | last :: (_ :: _ as rest) ->
    Net.crash net last;
    Net.run ~until:140.0 net;
    let v = view_exn g (List.hd rest) in
    Alcotest.(check bool) "post-storm crash detected" false (View.mem v last);
    check_same_view g ~like:(List.hd rest) rest
  | _ -> ()

let test_heartbeat_traffic_accounted () =
  let net, _, _ = mk ~n:3 () in
  Net.run ~until:10.0 net;
  Alcotest.(check bool) "heartbeats cost bytes" true
    (Netsim.Netstats.bytes_sent (Net.stats net) > 0)

let () =
  Alcotest.run "horus"
    [
      ( "views",
        [
          Alcotest.test_case "view module" `Quick test_view_module;
          Alcotest.test_case "initial views" `Quick test_initial_view_everywhere;
        ] );
      ( "failures",
        [
          Alcotest.test_case "member crash view change" `Quick test_member_crash_view_change;
          Alcotest.test_case "coordinator succession" `Quick test_coordinator_crash_succession;
          Alcotest.test_case "departed excluded" `Quick test_departed_excluded;
          Alcotest.test_case "rejoin + state transfer" `Quick test_rejoin_state_transfer;
          Alcotest.test_case "rejoined member receives" `Quick test_rejoined_member_receives;
          Alcotest.test_case "view installed once" `Quick test_view_installed_once;
          Alcotest.test_case "lossy admission" `Quick test_lossy_admission;
          Alcotest.test_case "singleton merges back" `Quick test_singleton_merges_back;
          Alcotest.test_case "crash while rejoining" `Quick test_crash_while_rejoining;
          Alcotest.test_case "sole survivor" `Quick test_sole_survivor;
          Alcotest.test_case "crash storm convergence" `Quick test_crash_storm_convergence;
          Alcotest.test_case "heartbeat bytes" `Quick test_heartbeat_traffic_accounted;
        ] );
    ]
