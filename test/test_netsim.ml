(* Tests for the discrete-event network simulator: engine ordering and
   cancellation, topology generators, routing, delivery semantics, failures
   and byte accounting. *)

module Engine = Netsim.Engine
module Topology = Netsim.Topology
module Net = Netsim.Net
module Message = Netsim.Message
module Netstats = Netsim.Netstats
module Chaos = Netsim.Chaos
module Rng = Tacoma_util.Rng

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- engine --- *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:2.0 (fun () -> log := 2 :: !log));
  ignore (Engine.schedule e ~after:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~after:3.0 (fun () -> log := 3 :: !log));
  Engine.run e;
  check Alcotest.(list int) "fires in time order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~after:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  check Alcotest.(list int) "same-time events keep scheduling order" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule e ~after:1.0 (fun () -> fired := true) in
  Engine.cancel timer;
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  check Alcotest.int "no pending" 0 (Engine.pending e)

let test_engine_cancel_idempotent () =
  let e = Engine.create () in
  let timer = Engine.schedule e ~after:1.0 ignore in
  Engine.cancel timer;
  Engine.cancel timer;
  check Alcotest.int "pending consistent" 0 (Engine.pending e)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~after:1.0 (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~after:5.0 (fun () -> fired := 5 :: !fired));
  Engine.run ~until:2.0 e;
  check Alcotest.(list int) "only early event" [ 1 ] !fired;
  check (Alcotest.float 1e-9) "clock advanced to until" 2.0 (Engine.now e);
  Engine.run e;
  check Alcotest.(list int) "remaining fires" [ 5; 1 ] !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:1.0 (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule e ~after:1.0 (fun () -> log := "b" :: !log))));
  Engine.run e;
  check Alcotest.(list string) "nested event ran" [ "a"; "b" ] (List.rev !log);
  check (Alcotest.float 1e-9) "time accumulated" 2.0 (Engine.now e)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~after:(-5.0) (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "fired at now" true !fired;
  check (Alcotest.float 1e-9) "clock unchanged" 0.0 (Engine.now e)

let test_engine_run_until_skips_cancelled_head () =
  (* regression: a cancelled entry at the head of the queue used to slip
     past the [until] check and fire the next real event early *)
  let e = Engine.create () in
  let fired = ref [] in
  let early = Engine.schedule e ~after:1.0 (fun () -> fired := 1 :: !fired) in
  ignore (Engine.schedule e ~after:5.0 (fun () -> fired := 5 :: !fired));
  Engine.cancel early;
  Engine.run ~until:2.0 e;
  check Alcotest.(list int) "late event not fired early" [] !fired;
  check (Alcotest.float 1e-9) "clock stops at until" 2.0 (Engine.now e);
  Engine.run e;
  check Alcotest.(list int) "late event still fires" [ 5 ] !fired;
  check (Alcotest.float 1e-9) "clock at late event" 5.0 (Engine.now e)

let test_engine_compaction () =
  let metrics = Obs.Metrics.create () in
  let e = Engine.create ~metrics () in
  let log = ref [] in
  let timers =
    List.init 128 (fun i ->
        Engine.schedule e ~after:(float_of_int (i + 1)) (fun () ->
            log := i :: !log))
  in
  (* cancel the first 100: dead entries now outnumber live ones, which must
     trigger at least one heap rebuild *)
  List.iteri (fun i tm -> if i < 100 then Engine.cancel tm) timers;
  Alcotest.(check bool) "compacted" true (Engine.compactions e >= 1);
  check Alcotest.int "metrics counter mirrors accessor" (Engine.compactions e)
    (Obs.Metrics.counter metrics "engine.compactions");
  check Alcotest.int "live entries preserved" 28 (Engine.pending e);
  Engine.run e;
  check Alcotest.(list int) "survivors fire in time order"
    (List.init 28 (fun i -> i + 100))
    (List.rev !log)

let test_engine_no_compaction_below_floor () =
  (* small queues never compact: the size floor keeps the rebuild from
     thrashing on ordinary timer churn *)
  let e = Engine.create () in
  let timers = List.init 10 (fun i -> Engine.schedule e ~after:(float_of_int i) ignore) in
  List.iter Engine.cancel timers;
  check Alcotest.int "no rebuild below floor" 0 (Engine.compactions e);
  check Alcotest.int "nothing pending" 0 (Engine.pending e)

(* Random interleavings of the engine API against a reference model: a
   plain list of pending events, fired by smallest (time, seq).  Events may
   carry a follow-up scheduled from inside their callback.  Cancel-heavy
   runs push the queue past the compaction floor, so agreement also shows
   that compaction never reorders events.  Any event may be a daemon: an
   unbounded [run] must stop exactly when no live non-daemon event remains,
   and [run ~until] must treat daemons like any other event. *)
type engine_op =
  | Sched of float * (float * bool) option * bool
      (* after, follow-up (delay, daemon), daemon *)
  | Sched_at of float * bool (* absolute; may lie in the past *)
  | Burst of float list * int * bool (* many [Sched], then cancel all but every k-th *)
  | Cancel of int (* counts back from the newest timer *)
  | Step
  | Run_until of float (* relative to now *)
  | Run (* to quiescence *)

let engine_op_gen =
  QCheck2.Gen.(
    let delay = map (fun k -> float_of_int k *. 0.25) (0 -- 24) in
    let daemon = frequencyl [ (3, false); (1, true) ] in
    frequency
      [
        ( 4,
          map3
            (fun d f dm -> Sched (d, f, dm))
            delay
            (opt ~ratio:0.2 (pair delay daemon))
            daemon );
        (1, map2 (fun d dm -> Sched_at (d -. 2.0, dm)) delay daemon);
        ( 1,
          map3
            (fun ds k dm -> Burst (ds, k, dm))
            (list_size (10 -- 80) delay)
            (1 -- 10)
            daemon );
        (4, map (fun i -> Cancel i) (0 -- 99));
        (2, pure Step);
        (1, map (fun d -> Run_until d) delay);
        (1, pure Run);
      ])

type model_ev = {
  m_time : float;
  m_id : int;
  m_follow : (float * bool) option;
  m_daemon : bool;
}

let engine_agrees_with_model ops =
  (* the engine under test; events are numbered in scheduling order *)
  let e = Engine.create () in
  let timers = ref [||] and fired = ref [] in
  let rec track schedule follow =
    let id = Array.length !timers in
    let tm =
      schedule (fun () ->
          fired := id :: !fired;
          Option.iter
            (fun (d, daemon) -> track (Engine.schedule e ~daemon ~after:d) None)
            follow)
    in
    timers := Array.append !timers [| tm |]
  in
  (* the model: pending events in a list, the smallest (time, id) fires *)
  let pending = ref [] and now = ref 0.0 and next = ref 0 and m_fired = ref [] in
  let m_sched ~at ~daemon follow =
    pending :=
      { m_time = max at !now; m_id = !next; m_follow = follow; m_daemon = daemon } :: !pending;
    incr next
  in
  let m_head () =
    List.fold_left
      (fun best ev ->
        match best with
        | Some b when (b.m_time, b.m_id) < (ev.m_time, ev.m_id) -> best
        | Some _ | None -> Some ev)
      None !pending
  in
  let m_step () =
    match m_head () with
    | None -> false
    | Some ev ->
      pending := List.filter (fun x -> x.m_id <> ev.m_id) !pending;
      now := ev.m_time;
      m_fired := ev.m_id :: !m_fired;
      Option.iter (fun (d, daemon) -> m_sched ~at:(!now +. d) ~daemon None) ev.m_follow;
      true
  in
  let m_run () =
    while List.exists (fun ev -> not ev.m_daemon) !pending do
      ignore (m_step ())
    done
  in
  let agree () =
    !fired = !m_fired && Engine.now e = !now && Engine.pending e = List.length !pending
  in
  let apply op =
    match op with
    | Sched (d, follow, daemon) ->
      track (Engine.schedule e ~daemon ~after:d) follow;
      m_sched ~at:(!now +. d) ~daemon follow;
      true
    | Sched_at (at, daemon) ->
      track (Engine.schedule_at e ~daemon ~at) None;
      m_sched ~at ~daemon None;
      true
    | Burst (ds, k, daemon) ->
      let first = Array.length !timers in
      List.iter
        (fun d ->
          track (Engine.schedule e ~daemon ~after:d) None;
          m_sched ~at:(!now +. d) ~daemon None)
        ds;
      for id = first to Array.length !timers - 1 do
        if (id - first) mod k <> 0 then Engine.cancel !timers.(id)
      done;
      pending :=
        List.filter (fun ev -> ev.m_id < first || (ev.m_id - first) mod k = 0) !pending;
      true
    | Cancel back ->
      let id = Array.length !timers - 1 - back in
      if id >= 0 then begin
        Engine.cancel !timers.(id);
        pending := List.filter (fun ev -> ev.m_id <> id) !pending
      end;
      true
    | Step -> Engine.step e = m_step ()
    | Run_until d ->
      let stop = Engine.now e +. d in
      Engine.run ~until:stop e;
      let rec drain () =
        match m_head () with
        | Some ev when ev.m_time <= stop ->
          ignore (m_step ());
          drain ()
        | Some _ | None -> now := max !now stop
      in
      drain ();
      true
    | Run ->
      Engine.run e;
      m_run ();
      List.for_all (fun ev -> ev.m_daemon) !pending
  in
  List.for_all (fun op -> apply op && agree ()) ops
  && apply Run && agree ()
  &&
  (* only daemons are left: they still fire when stepped *)
  (while Engine.step e do () done;
   while m_step () do () done;
   agree () && Engine.pending e = 0)

let test_engine_model =
  qtest ~count:300 "engine agrees with a sorted-list model"
    QCheck2.Gen.(list_size (0 -- 200) engine_op_gen)
    engine_agrees_with_model

(* --- topology generators --- *)

let degree topo s = List.length (Topology.neighbors topo s)

let test_topo_ring () =
  let t = Topology.ring 6 in
  check Alcotest.int "sites" 6 (Topology.site_count t);
  List.iter (fun s -> check Alcotest.int "degree 2" 2 (degree t s)) (Topology.sites t)

let test_topo_ring_small () =
  let t = Topology.ring 1 in
  check Alcotest.int "singleton ok" 1 (Topology.site_count t);
  check Alcotest.int "no self loop" 0 (degree t 0);
  let t2 = Topology.ring 2 in
  check Alcotest.int "pair degree" 1 (degree t2 0)

let test_topo_star () =
  let t = Topology.star 5 in
  check Alcotest.int "hub degree" 5 (degree t 0);
  List.iter (fun s -> check Alcotest.int "spoke degree" 1 (degree t s)) [ 1; 2; 3; 4; 5 ]

let test_topo_grid () =
  let t = Topology.grid 3 4 in
  check Alcotest.int "sites" 12 (Topology.site_count t);
  check Alcotest.int "corner degree" 2 (degree t 0);
  check Alcotest.int "center degree" 4 (degree t 5)

let test_topo_full_mesh () =
  let t = Topology.full_mesh 5 in
  List.iter (fun s -> check Alcotest.int "degree n-1" 4 (degree t s)) (Topology.sites t)

let test_topo_line () =
  let t = Topology.line 4 in
  check Alcotest.int "end degree" 1 (degree t 0);
  check Alcotest.int "mid degree" 2 (degree t 1)

let test_topo_random_connected () =
  let rng = Rng.create 5L in
  let t = Topology.random ~rng ~n:20 ~p:0.05 () in
  (* spanning ring guarantees connectivity *)
  let net = Net.create t in
  List.iter
    (fun dst ->
      Alcotest.(check bool) "reachable" true (Option.is_some (Net.route net 0 dst)))
    (Topology.sites t)

let test_topo_wan_pair () =
  let t = Topology.wan_pair ~cluster:3 () in
  check Alcotest.int "six sites" 6 (Topology.site_count t);
  check Alcotest.string "names" "tromso-0" (Topology.site_name t 0);
  check Alcotest.string "names 2" "cornell-0" (Topology.site_name t 3);
  (* WAN link only between the cluster heads *)
  Alcotest.(check bool) "wan link" true (Topology.link t 0 3 <> None);
  Alcotest.(check bool) "no direct cross link" true (Topology.link t 1 4 = None);
  (* cross-cluster traffic is slower than intra-cluster *)
  let net = Net.create t in
  let lan = Option.get (Net.delivery_delay net 1 2 ~size:1000) in
  let wan = Option.get (Net.delivery_delay net 1 4 ~size:1000) in
  Alcotest.(check bool) "wan much slower" true (wan > 20.0 *. lan)

let test_topo_rejects_self_loop () =
  let t = Topology.create () in
  let a = Topology.add_site t ~name:"a" in
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.add_link: self loop")
    (fun () -> Topology.add_link t a a ~latency:1.0 ~bandwidth:1.0)

let test_topo_site_names () =
  let t = Topology.create () in
  let a = Topology.add_site t ~name:"alpha" in
  let b = Topology.add_site t ~name:"beta" in
  check Alcotest.string "name a" "alpha" (Topology.site_name t a);
  check Alcotest.string "name b" "beta" (Topology.site_name t b)

let test_topo_frozen_by_net () =
  let t = Topology.line 3 in
  let net1 = Net.create t in
  Alcotest.check_raises "add_link after Net.create"
    (Invalid_argument "Topology.add_link: topology is frozen") (fun () ->
      Topology.add_link t 0 2 ~latency:0.001 ~bandwidth:1e6);
  Alcotest.check_raises "add_site after Net.create"
    (Invalid_argument "Topology.add_site: topology is frozen") (fun () ->
      ignore (Topology.add_site t ~name:"late"));
  (* a second network over the same (already frozen) topology *)
  let net2 = Net.create t in
  List.iter
    (fun net ->
      check Alcotest.(option (list int)) "route" (Some [ 1; 2 ]) (Net.route net 0 2);
      Net.send net ~src:0 ~dst:2 ~size:100 (Netsim.Message.Ping "x");
      Net.run net;
      check Alcotest.int "delivered" 1 (Netstats.messages_delivered (Net.stats net));
      check Alcotest.int "charged on both links" 200 (Netstats.byte_hops (Net.stats net)))
    [ net1; net2 ]

(* --- delivery --- *)

let mk_net ?seed topo = Net.create ?seed topo

let test_delivery_basic () =
  let net = mk_net (Topology.line 2) in
  let got = ref None in
  Net.set_handler net 1 ~key:"t" (fun m -> got := Some m);
  Net.send net ~src:0 ~dst:1 ~size:1000 (Message.Ping "hi");
  Net.run net;
  match !got with
  | None -> Alcotest.fail "not delivered"
  | Some m ->
    check Alcotest.int "src" 0 m.Message.src;
    check Alcotest.int "size" 1000 m.Message.size;
    (match m.Message.payload with
    | Message.Ping s -> check Alcotest.string "payload" "hi" s
    | _ -> Alcotest.fail "wrong payload");
    (* 5ms latency + 1000B at 1MB/s = 1ms *)
    check (Alcotest.float 1e-6) "delivery time" 0.006 (Net.now net)

let test_delivery_multi_hop_time_and_bytes () =
  let net = mk_net (Topology.line 3) in
  let at = ref 0.0 in
  Net.set_handler net 2 ~key:"t" (fun _ -> at := Net.now net);
  Net.send net ~src:0 ~dst:2 ~size:1000 (Message.Ping "x");
  Net.run net;
  check (Alcotest.float 1e-6) "two hops" 0.012 !at;
  let stats = Net.stats net in
  check Alcotest.int "byte-hops" 2000 (Netstats.byte_hops stats);
  check Alcotest.int "bytes once" 1000 (Netstats.bytes_sent stats);
  let link_bytes label =
    Obs.Metrics.counter (Net.metrics net) ~labels:[ ("link", label) ] "net.link.bytes"
  in
  check Alcotest.int "per-link charge" 1000 (link_bytes "0-1");
  check Alcotest.int "per-link charge 2" 1000 (link_bytes "1-2")

let test_delivery_local () =
  let net = mk_net (Topology.line 2) in
  let got = ref false in
  Net.set_handler net 0 ~key:"t" (fun _ -> got := true);
  Net.send net ~src:0 ~dst:0 ~size:50 (Message.Ping "self");
  Net.run net;
  Alcotest.(check bool) "local delivery" true !got;
  check Alcotest.int "no byte-hops for local" 0 (Netstats.byte_hops (Net.stats net))

let test_delivery_ordering_fifo_per_link () =
  let net = mk_net (Topology.line 2) in
  let order = ref [] in
  Net.set_handler net 1 ~key:"t" (fun m ->
      match m.Message.payload with
      | Message.Ping s -> order := s :: !order
      | _ -> ());
  Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "a");
  Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "b");
  Net.run net;
  check Alcotest.(list string) "fifo" [ "a"; "b" ] (List.rev !order)

let test_handler_multiplex () =
  let net = mk_net (Topology.line 2) in
  let hits = ref [] in
  Net.set_handler net 1 ~key:"x" (fun _ -> hits := "x" :: !hits);
  Net.set_handler net 1 ~key:"y" (fun _ -> hits := "y" :: !hits);
  Net.send net ~src:0 ~dst:1 ~size:1 (Message.Ping "p");
  Net.run net;
  check Alcotest.(list string) "both handlers" [ "x"; "y" ] (List.sort compare !hits);
  Net.clear_handler net 1 ~key:"x";
  hits := [];
  Net.send net ~src:0 ~dst:1 ~size:1 (Message.Ping "p");
  Net.run net;
  check Alcotest.(list string) "only y" [ "y" ] !hits

let test_handler_replace () =
  let net = mk_net (Topology.line 2) in
  let count = ref 0 in
  Net.set_handler net 1 ~key:"k" (fun _ -> count := !count + 1);
  Net.set_handler net 1 ~key:"k" (fun _ -> count := !count + 100);
  Net.send net ~src:0 ~dst:1 ~size:1 (Message.Ping "p");
  Net.run net;
  check Alcotest.int "replaced handler" 100 !count

(* --- failures --- *)

let test_crash_drops_delivery () =
  let net = mk_net (Topology.line 2) in
  let got = ref false in
  Net.set_handler net 1 ~key:"t" (fun _ -> got := true);
  Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "x");
  (* crash before the in-flight message lands *)
  ignore (Net.schedule net ~after:0.001 (fun () -> Net.crash net 1));
  Net.run net;
  Alcotest.(check bool) "dropped" false !got;
  check Alcotest.int "drop counted" 1 (Netstats.messages_dropped (Net.stats net))

let test_send_from_down_site_noop () =
  let net = mk_net (Topology.line 2) in
  Net.crash net 0;
  Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "x");
  Net.run net;
  check Alcotest.int "nothing sent" 0 (Netstats.messages_sent (Net.stats net))

let test_crash_restart_hooks () =
  let net = mk_net (Topology.line 2) in
  let log = ref [] in
  Net.on_crash net 1 (fun () -> log := "crash" :: !log);
  Net.on_restart net 1 (fun () -> log := "restart" :: !log);
  Net.crash net 1;
  Net.crash net 1 (* second crash is a no-op *);
  Net.restart net 1;
  Net.restart net 1;
  check Alcotest.(list string) "hooks once each" [ "crash"; "restart" ] (List.rev !log)

let test_routing_avoids_down_intermediate () =
  (* square: 0-1, 1-3, 0-2, 2-3; crash 1, messages 0->3 must go via 2 *)
  let t = Topology.create () in
  let s = Array.init 4 (fun i -> Topology.add_site t ~name:(string_of_int i)) in
  List.iter
    (fun (a, b) -> Topology.add_link t s.(a) s.(b) ~latency:0.005 ~bandwidth:1e6)
    [ (0, 1); (1, 3); (0, 2); (2, 3) ];
  let net = mk_net t in
  Net.crash net s.(1);
  (match Net.route net s.(0) s.(3) with
  | Some path -> check Alcotest.(list int) "via 2" [ s.(2); s.(3) ] path
  | None -> Alcotest.fail "no route");
  let got = ref false in
  Net.set_handler net s.(3) ~key:"t" (fun _ -> got := true);
  Net.send net ~src:s.(0) ~dst:s.(3) ~size:10 (Message.Ping "x");
  Net.run net;
  Alcotest.(check bool) "delivered around failure" true !got

let test_partition_blocks_and_heals () =
  let net = mk_net (Topology.line 2) in
  Net.set_link_enabled net 0 1 false;
  check Alcotest.(option (list int)) "no route" None (Net.route net 0 1);
  Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "x");
  Net.run net;
  check Alcotest.int "dropped at partition" 1 (Netstats.messages_dropped (Net.stats net));
  Net.set_link_enabled net 0 1 true;
  let got = ref false in
  Net.set_handler net 1 ~key:"t" (fun _ -> got := true);
  Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "x");
  Net.run net;
  Alcotest.(check bool) "healed" true !got

let test_link_contention_serializes () =
  (* two 1000B messages sent together on one 1 MB/s link: the second waits
     for the first to finish serialising (1 ms) *)
  let net = mk_net (Topology.line 2) in
  let times = ref [] in
  Net.set_handler net 1 ~key:"t" (fun _ -> times := Net.now net :: !times);
  Net.send net ~src:0 ~dst:1 ~size:1000 (Message.Ping "a");
  Net.send net ~src:0 ~dst:1 ~size:1000 (Message.Ping "b");
  Net.run net;
  match List.rev !times with
  | [ t1; t2 ] ->
    check (Alcotest.float 1e-9) "first at ser+lat" 0.006 t1;
    check (Alcotest.float 1e-9) "second queued behind first" 0.007 t2
  | other -> Alcotest.failf "expected 2 deliveries, got %d" (List.length other)

let test_contention_only_on_shared_links () =
  (* a hub fans out to two spokes: transfers on distinct links overlap *)
  let net = mk_net (Topology.star 2) in
  let times = ref [] in
  List.iter
    (fun s -> Net.set_handler net s ~key:"t" (fun _ -> times := Net.now net :: !times))
    [ 1; 2 ];
  Net.send net ~src:0 ~dst:1 ~size:1000 (Message.Ping "a");
  Net.send net ~src:0 ~dst:2 ~size:1000 (Message.Ping "b");
  Net.run net;
  match List.rev !times with
  | [ t1; t2 ] ->
    check (Alcotest.float 1e-9) "parallel 1" 0.006 t1;
    check (Alcotest.float 1e-9) "parallel 2" 0.006 t2
  | other -> Alcotest.failf "expected 2 deliveries, got %d" (List.length other)

let test_delivery_delay_matches_send () =
  let net = mk_net (Topology.line 3) in
  let predicted = Option.get (Net.delivery_delay net 0 2 ~size:500) in
  let at = ref 0.0 in
  Net.set_handler net 2 ~key:"t" (fun _ -> at := Net.now net);
  Net.send net ~src:0 ~dst:2 ~size:500 (Message.Ping "x");
  Net.run net;
  check (Alcotest.float 1e-9) "predicted = actual" predicted !at

let test_lossy_link_statistics () =
  let net = Net.create ~loss_rate:0.3 (Topology.line 2) in
  let got = ref 0 in
  Net.set_handler net 1 ~key:"t" (fun _ -> incr got);
  for _ = 1 to 1000 do
    Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "x")
  done;
  Net.run net;
  Alcotest.(check bool) "roughly 70% delivered" true (!got > 620 && !got < 780);
  check Alcotest.int "drops + deliveries = sends" 1000
    (Netstats.messages_delivered (Net.stats net) + Netstats.messages_dropped (Net.stats net))

let test_loss_zero_by_default () =
  let net = Net.create (Topology.line 2) in
  let got = ref 0 in
  Net.set_handler net 1 ~key:"t" (fun _ -> incr got);
  for _ = 1 to 200 do
    Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "x")
  done;
  Net.run net;
  check Alcotest.int "all delivered" 200 !got

let test_local_delivery_never_lost () =
  let net = Net.create ~loss_rate:0.9 (Topology.line 2) in
  let got = ref 0 in
  Net.set_handler net 0 ~key:"t" (fun _ -> incr got);
  for _ = 1 to 100 do
    Net.send net ~src:0 ~dst:0 ~size:10 (Message.Ping "x")
  done;
  Net.run net;
  check Alcotest.int "local immune to loss" 100 !got

(* --- crash plans (Chaos.crashes / Chaos.apply) --- *)

(* (site, at, downtime) of every crash event of a plan *)
let crash_events plan =
  List.filter_map
    (function
      | Chaos.Crash { site; at; downtime } -> Some (site, at, downtime)
      | Chaos.Cut _ | Chaos.Loss_burst _ | Chaos.Degrade _ -> None)
    plan

let test_crashes_bounds () =
  let rng = Rng.create 8L in
  let plan = Chaos.crashes ~rng ~sites:[ 0; 1; 2 ] ~rate:0.1 ~mean_downtime:5.0 ~until:100.0 in
  let crashes = crash_events plan in
  Alcotest.(check bool) "some crashes planned" true (List.length crashes > 0);
  check Alcotest.int "only crash events" (List.length plan) (List.length crashes);
  List.iter
    (fun (_, at, downtime) ->
      Alcotest.(check bool) "time in range" true (at >= 0.0 && at < 100.0);
      Alcotest.(check bool) "positive downtime" true (downtime > 0.0))
    crashes

let test_crashes_no_overlap_per_site () =
  let rng = Rng.create 9L in
  let plan = Chaos.crashes ~rng ~sites:[ 0 ] ~rate:0.5 ~mean_downtime:3.0 ~until:200.0 in
  let rec no_overlap = function
    | (_, a_at, a_down) :: ((_, b_at, _) :: _ as rest) ->
      Alcotest.(check bool) "crash after previous restart" true (b_at >= a_at +. a_down);
      no_overlap rest
    | _ -> ()
  in
  no_overlap (crash_events plan)

let test_fault_apply () =
  let net = mk_net (Topology.line 2) in
  Chaos.crash_for net ~site:1 ~at:1.0 ~downtime:2.0;
  Net.run ~until:0.5 net;
  Alcotest.(check bool) "up before" true (Net.site_up net 1);
  Net.run ~until:1.5 net;
  Alcotest.(check bool) "down during" false (Net.site_up net 1);
  Net.run ~until:4.0 net;
  Alcotest.(check bool) "up after" true (Net.site_up net 1)

let test_zero_rate_plan_empty () =
  let rng = Rng.create 1L in
  check Alcotest.int "no crashes at rate 0" 0
    (List.length (Chaos.crashes ~rng ~sites:[ 0; 1 ] ~rate:0.0 ~mean_downtime:1.0 ~until:10.0))

let test_route_cache_invalidated_by_restart () =
  (* routes computed while a site is down must be recomputed once it is
     back: the cache is generation-stamped *)
  let t = Topology.create () in
  let s = Array.init 4 (fun i -> Topology.add_site t ~name:(string_of_int i)) in
  (* short path 0-1-3 (2 hops), long path 0-2-3 via higher-latency links *)
  Topology.add_link t s.(0) s.(1) ~latency:0.001 ~bandwidth:1e6;
  Topology.add_link t s.(1) s.(3) ~latency:0.001 ~bandwidth:1e6;
  Topology.add_link t s.(0) s.(2) ~latency:0.010 ~bandwidth:1e6;
  Topology.add_link t s.(2) s.(3) ~latency:0.010 ~bandwidth:1e6;
  let net = mk_net t in
  check Alcotest.(option (list int)) "short path" (Some [ 1; 3 ]) (Net.route net 0 3);
  Net.crash net 1;
  check Alcotest.(option (list int)) "detour while 1 down" (Some [ 2; 3 ]) (Net.route net 0 3);
  Net.restart net 1;
  check Alcotest.(option (list int)) "short path restored" (Some [ 1; 3 ]) (Net.route net 0 3)

let test_route_cache_cleared_on_churn () =
  (* every generation bump must empty the cache eagerly, so a chaos run that
     churns links holds at most one generation of routes at a time instead
     of accreting stale rows forever *)
  let net = mk_net (Topology.ring 6) in
  let warm () =
    List.iter (fun dst -> ignore (Net.route net 0 dst)) [ 1; 2; 3; 4; 5 ];
    Alcotest.(check bool) "cache warmed" true (Net.route_cache_size net > 0)
  in
  warm ();
  Net.crash net 3;
  check Alcotest.int "crash clears cache" 0 (Net.route_cache_size net);
  warm ();
  Net.restart net 3;
  check Alcotest.int "restart clears cache" 0 (Net.route_cache_size net);
  warm ();
  Net.set_link_enabled net 0 1 false;
  check Alcotest.int "link cut clears cache" 0 (Net.route_cache_size net);
  warm ();
  Net.set_link_enabled net 0 1 false;
  Alcotest.(check bool) "no-op toggle keeps cache" true (Net.route_cache_size net > 0);
  Net.set_link_degraded net 1 2 (Some (2.0, 0.5));
  check Alcotest.int "degradation clears cache" 0 (Net.route_cache_size net);
  warm ()

(* --- chaos hooks: partition reasons, per-link loss, degradation --- *)

let drop_count net reason =
  Obs.Metrics.counter (Net.metrics net) ~labels:[ ("reason", reason) ] "net.drops"

let test_partition_drop_reason () =
  (* a cut link is a partition (the sites are alive); a down intermediate
     with every link enabled is plain no-route *)
  let net = mk_net (Topology.line 3) in
  Net.set_link_enabled net 1 2 false;
  Net.send net ~src:0 ~dst:2 ~size:10 (Message.Ping "x");
  Net.run net;
  check Alcotest.int "partition reason" 1 (drop_count net "partition");
  Net.set_link_enabled net 1 2 true;
  Net.crash net 1;
  Net.send net ~src:0 ~dst:2 ~size:10 (Message.Ping "x");
  Net.run net;
  check Alcotest.int "no-route reason" 1 (drop_count net "no-route");
  check Alcotest.int "still one partition drop" 1 (drop_count net "partition")

let test_partition_invalidates_route_cache () =
  (* a route cached before the cut must not carry messages across the
     disabled link; healing restores delivery *)
  let net = mk_net (Topology.line 3) in
  let got = ref 0 in
  Net.set_handler net 2 ~key:"t" (fun _ -> incr got);
  Net.send net ~src:0 ~dst:2 ~size:10 (Message.Ping "warm");
  Net.run net;
  check Alcotest.int "warm route delivers" 1 !got;
  Net.set_link_enabled net 1 2 false;
  Net.send net ~src:0 ~dst:2 ~size:10 (Message.Ping "cut");
  Net.run net;
  check Alcotest.int "cached route not reused across cut" 1 !got;
  check Alcotest.int "dropped as partition" 1 (drop_count net "partition");
  Net.set_link_enabled net 1 2 true;
  Net.send net ~src:0 ~dst:2 ~size:10 (Message.Ping "healed");
  Net.run net;
  check Alcotest.int "healed delivery" 2 !got

let test_fault_apply_idempotent () =
  (* two overlapping plans for one site: the second crash fires while the
     site is already down and is skipped together with its paired restart,
     so the first fault's downtime is not cut short *)
  let net = mk_net (Topology.line 2) in
  Chaos.apply net
    [
      Chaos.Crash { site = 1; at = 1.0; downtime = 10.0 };
      Chaos.Crash { site = 1; at = 2.0; downtime = 1.0 };
    ];
  Net.run ~until:5.0 net;
  Alcotest.(check bool) "still down at t=5 (short restart skipped)" false
    (Net.site_up net 1);
  Net.run ~until:12.0 net;
  Alcotest.(check bool) "up after the first fault's downtime" true (Net.site_up net 1);
  check Alcotest.int "skip counted" 1
    (Obs.Metrics.counter (Net.metrics net) ~labels:[ ("kind", "crash") ] "chaos.skipped")

let test_link_loss_override () =
  let net = Net.create ~seed:9L (Topology.line 2) in
  Net.set_link_loss net 0 1 (Some 0.999);
  let got = ref 0 in
  Net.set_handler net 1 ~key:"t" (fun _ -> incr got);
  for _ = 1 to 10 do
    Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "x")
  done;
  Net.run net;
  check Alcotest.int "all lost under the override" 0 !got;
  check Alcotest.int "loss reason" 10 (drop_count net "loss");
  Net.set_link_loss net 0 1 None;
  Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "x");
  Net.run net;
  check Alcotest.int "restored" 1 !got;
  Alcotest.check_raises "rate must be < 1"
    (Invalid_argument "Net.set_link_loss: rate must be in [0,1)") (fun () ->
      Net.set_link_loss net 0 1 (Some 1.0))

let test_degradation_slows_and_reroutes () =
  let t = Topology.create () in
  let s = Array.init 3 (fun i -> Topology.add_site t ~name:(string_of_int i)) in
  Topology.add_link t s.(0) s.(1) ~latency:0.005 ~bandwidth:1e6;
  Topology.add_link t s.(0) s.(2) ~latency:0.004 ~bandwidth:1e6;
  Topology.add_link t s.(2) s.(1) ~latency:0.004 ~bandwidth:1e6;
  let net = mk_net t in
  check Alcotest.(option (list int)) "direct link wins" (Some [ 1 ]) (Net.route net 0 1);
  Net.set_link_degraded net 0 1 (Some (10.0, 1.0));
  check Alcotest.(option (list int)) "reroutes around degraded link" (Some [ 2; 1 ])
    (Net.route net 0 1);
  Net.set_link_degraded net 0 1 None;
  check Alcotest.(option (list int)) "restored" (Some [ 1 ]) (Net.route net 0 1);
  Alcotest.check_raises "factors must be positive"
    (Invalid_argument "Net.set_link_degraded: factors must be positive") (fun () ->
      Net.set_link_degraded net 0 1 (Some (0.0, 1.0)))

(* --- trace --- *)

let test_trace_records () =
  let net = Net.create ~trace:true (Topology.line 2) in
  Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "x");
  Net.run net;
  let names =
    List.map (fun (e : Obs.Event.t) -> e.name) (Obs.Tracer.events (Net.recorder net))
  in
  Alcotest.(check bool) "send traced" true (List.mem "net.send" names);
  Alcotest.(check bool) "deliver traced" true (List.mem "net.deliver" names)

let test_trace_disabled_by_default () =
  let net = Net.create (Topology.line 2) in
  Net.send net ~src:0 ~dst:1 ~size:10 (Message.Ping "x");
  Net.run net;
  check Alcotest.int "no events" 0 (List.length (Obs.Tracer.events (Net.recorder net)))

(* --- property: routing optimality on random graphs --- *)

let test_route_is_shortest =
  qtest ~count:50 "dijkstra finds minimal hop latency on uniform-latency graphs"
    QCheck2.Gen.(pair (int_range 2 12) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let topo = Topology.random ~rng ~n ~p:0.3 () in
      let net = Net.create topo in
      (* BFS hop count must match route length when all latencies equal *)
      let bfs src =
        let dist = Array.make n (-1) in
        dist.(src) <- 0;
        let q = Queue.create () in
        Queue.add src q;
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          List.iter
            (fun v ->
              if dist.(v) < 0 then begin
                dist.(v) <- dist.(u) + 1;
                Queue.add v q
              end)
            (Topology.neighbors topo u)
        done;
        dist
      in
      let dist = bfs 0 in
      List.for_all
        (fun dst ->
          match Net.route net 0 dst with
          | Some path -> List.length path = dist.(dst)
          | None -> dist.(dst) < 0)
        (Topology.sites topo))

(* --- accounting invariant: the registry holds what Netstats holds --- *)

(* Random topologies, sends (some from a site to itself) and chaos plans
   with crashes, partitions, loss bursts and degraded links, on a lossy
   net: after the run the metrics registry's message and byte counters
   equal Netstats'. *)
let test_registry_matches_netstats =
  let send = QCheck2.Gen.(quad nat nat (int_bound 4_000) (float_bound_inclusive 80.0)) in
  qtest ~count:200 "registry counters equal Netstats"
    QCheck2.Gen.(
      quad (int_range 1 9) (int_bound 100_000) (float_bound_exclusive 0.3)
        (list_size (0 -- 60) send))
    (fun (n, seed, loss_rate, sends) ->
      let rng = Rng.create (Int64.of_int seed) in
      let topo = Topology.random ~rng ~n ~p:0.3 () in
      let net = Net.create ~seed:(Int64.of_int seed) ~loss_rate topo in
      let profile =
        {
          Chaos.default_profile with
          crash_rate = 0.01;
          bisection_rate = 0.05;
          flap_rate = 0.05;
          loss_burst_rate = 0.05;
          degrade_rate = 0.05;
        }
      in
      Chaos.apply net (Chaos.mixed ~rng:(Rng.split rng) ~topo ~profile ~until:80.0 ());
      List.iter
        (fun (src, dst, size, at) ->
          ignore
            (Net.schedule net ~after:at (fun () ->
                 Net.send net ~src:(src mod n) ~dst:(dst mod n) ~size (Message.Ping "x"))))
        sends;
      Net.run net;
      let st = Net.stats net and m = Net.metrics net in
      let pairs =
        [
          ("sent", Obs.Metrics.counter m "net.sent", Netstats.messages_sent st);
          ("delivered", Obs.Metrics.counter m "net.delivered", Netstats.messages_delivered st);
          ("dropped", Obs.Metrics.counter_total m "net.drops", Netstats.messages_dropped st);
          ("byte-hops", Obs.Metrics.counter_total m "net.link.bytes", Netstats.byte_hops st);
        ]
      in
      List.for_all
        (fun (what, registry, netstats) ->
          registry = netstats
          || QCheck2.Test.fail_reportf "%s: registry %d, Netstats %d" what registry netstats)
        pairs)

let () =
  Alcotest.run "netsim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "fifo at same time" `Quick test_engine_fifo_at_same_time;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel idempotent" `Quick test_engine_cancel_idempotent;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
          Alcotest.test_case "run until skips cancelled head" `Quick
            test_engine_run_until_skips_cancelled_head;
          Alcotest.test_case "compaction sheds dead entries" `Quick test_engine_compaction;
          Alcotest.test_case "no compaction below floor" `Quick
            test_engine_no_compaction_below_floor;
          test_engine_model;
        ] );
      ( "topology",
        [
          Alcotest.test_case "ring" `Quick test_topo_ring;
          Alcotest.test_case "tiny rings" `Quick test_topo_ring_small;
          Alcotest.test_case "star" `Quick test_topo_star;
          Alcotest.test_case "grid" `Quick test_topo_grid;
          Alcotest.test_case "full mesh" `Quick test_topo_full_mesh;
          Alcotest.test_case "line" `Quick test_topo_line;
          Alcotest.test_case "random connected" `Quick test_topo_random_connected;
          Alcotest.test_case "wan pair" `Quick test_topo_wan_pair;
          Alcotest.test_case "rejects self loops" `Quick test_topo_rejects_self_loop;
          Alcotest.test_case "site names" `Quick test_topo_site_names;
          Alcotest.test_case "frozen by Net.create" `Quick test_topo_frozen_by_net;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_delivery_basic;
          Alcotest.test_case "multi-hop time and bytes" `Quick test_delivery_multi_hop_time_and_bytes;
          Alcotest.test_case "local" `Quick test_delivery_local;
          Alcotest.test_case "per-link fifo" `Quick test_delivery_ordering_fifo_per_link;
          Alcotest.test_case "handler multiplex" `Quick test_handler_multiplex;
          Alcotest.test_case "handler replace" `Quick test_handler_replace;
          Alcotest.test_case "predicted delay" `Quick test_delivery_delay_matches_send;
          Alcotest.test_case "link contention" `Quick test_link_contention_serializes;
          Alcotest.test_case "no false contention" `Quick test_contention_only_on_shared_links;
          test_route_is_shortest;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash drops delivery" `Quick test_crash_drops_delivery;
          Alcotest.test_case "send from down site" `Quick test_send_from_down_site_noop;
          Alcotest.test_case "crash/restart hooks" `Quick test_crash_restart_hooks;
          Alcotest.test_case "routes avoid down sites" `Quick test_routing_avoids_down_intermediate;
          Alcotest.test_case "partition blocks and heals" `Quick test_partition_blocks_and_heals;
          Alcotest.test_case "route cache invalidation" `Quick
            test_route_cache_invalidated_by_restart;
          Alcotest.test_case "route cache cleared on churn" `Quick
            test_route_cache_cleared_on_churn;
          Alcotest.test_case "partition drop reason" `Quick test_partition_drop_reason;
          Alcotest.test_case "cut invalidates cached routes" `Quick
            test_partition_invalidates_route_cache;
        ] );
      ( "loss",
        [
          Alcotest.test_case "lossy statistics" `Quick test_lossy_link_statistics;
          Alcotest.test_case "zero by default" `Quick test_loss_zero_by_default;
          Alcotest.test_case "local immune" `Quick test_local_delivery_never_lost;
          Alcotest.test_case "per-link loss override" `Quick test_link_loss_override;
          Alcotest.test_case "degradation reroutes" `Quick
            test_degradation_slows_and_reroutes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "poisson bounds" `Quick test_crashes_bounds;
          Alcotest.test_case "no per-site overlap" `Quick test_crashes_no_overlap_per_site;
          Alcotest.test_case "apply plan" `Quick test_fault_apply;
          Alcotest.test_case "apply is idempotent" `Quick test_fault_apply_idempotent;
          Alcotest.test_case "zero rate" `Quick test_zero_rate_plan_empty;
        ] );
      ("stats", [ test_registry_matches_netstats ]);
      ( "trace",
        [
          Alcotest.test_case "records when enabled" `Quick test_trace_records;
          Alcotest.test_case "off by default" `Quick test_trace_disabled_by_default;
        ] );
    ]
