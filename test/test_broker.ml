(* Tests for the scheduling substrate (paper §4/§6): policies, matchmaker
   brokers, load monitors, queueing providers, tickets, and protected-agent
   brokering. *)

module Policy = Broker.Policy
module Matchmaker = Broker.Matchmaker
module Provider = Broker.Provider
module Ticket = Broker.Ticket
module Protect = Broker.Protect
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Net = Netsim.Net
module Topology = Netsim.Topology
module Rng = Tacoma_util.Rng

let check = Alcotest.check

(* --- policies --- *)

let cand ?(capacity = 1.0) ?(load = 0.0) provider =
  { Policy.provider; host = provider ^ "-host"; capacity; load; report_age = 0.0 }

let test_policy_least_loaded () =
  let cs = [ cand ~load:5.0 "a"; cand ~load:1.0 "b"; cand ~load:3.0 "c" ] in
  let rng = Rng.create 1L in
  match Policy.choose Policy.Least_loaded ~rng ~rr_counter:(ref 0) cs with
  | Some c -> check Alcotest.string "picks b" "b" c.Policy.provider
  | None -> Alcotest.fail "no choice"

let test_policy_weighted () =
  (* a: load 4 cap 8 -> 0.5 ; b: load 1 cap 1 -> 1.0 *)
  let cs = [ cand ~load:4.0 ~capacity:8.0 "a"; cand ~load:1.0 ~capacity:1.0 "b" ] in
  let rng = Rng.create 1L in
  match Policy.choose Policy.Weighted ~rng ~rr_counter:(ref 0) cs with
  | Some c -> check Alcotest.string "picks a" "a" c.Policy.provider
  | None -> Alcotest.fail "no choice"

let test_policy_round_robin_cycles () =
  let cs = [ cand "a"; cand "b"; cand "c" ] in
  let rng = Rng.create 1L in
  let counter = ref 0 in
  let picks =
    List.init 6 (fun _ ->
        (Option.get (Policy.choose Policy.Round_robin ~rng ~rr_counter:counter cs))
          .Policy.provider)
  in
  check Alcotest.(list string) "cycles" [ "a"; "b"; "c"; "a"; "b"; "c" ] picks

let test_policy_empty () =
  let rng = Rng.create 1L in
  List.iter
    (fun p ->
      check Alcotest.bool "none on empty" true
        (Policy.choose p ~rng ~rr_counter:(ref 0) [] = None))
    Policy.all

let test_policy_names_roundtrip () =
  List.iter
    (fun p ->
      check Alcotest.bool (Policy.name p) true (Policy.of_string (Policy.name p) = Some p))
    Policy.all

(* --- matchmaker + providers over the network --- *)

let mk_world ?(n = 5) () =
  let net = Net.create (Topology.full_mesh n) in
  let k = Kernel.create net in
  (net, k)

let test_register_and_lookup () =
  let net, k = mk_world () in
  let b = Matchmaker.install k ~site:0 ~name:"broker" () in
  let p1 = Provider.install k ~site:1 ~name:"p1" ~service:"compute" ~capacity:2.0 () in
  let p2 = Provider.install k ~site:2 ~name:"p2" ~service:"compute" ~capacity:1.0 () in
  let _ = Provider.install k ~site:3 ~name:"q" ~service:"storage" ~capacity:1.0 () in
  Matchmaker.register_provider b p1;
  Matchmaker.register_provider b p2;
  Net.run net;
  check Alcotest.int "two compute candidates" 2
    (List.length (Matchmaker.candidates b ~service:"compute"));
  check Alcotest.int "no storage registered here" 0
    (List.length (Matchmaker.candidates b ~service:"storage"));
  match Matchmaker.lookup b ~service:"compute" () with
  | Some c -> Alcotest.(check bool) "found" true (List.mem c.Policy.provider [ "p1"; "p2" ])
  | None -> Alcotest.fail "lookup failed"

let test_lookup_via_meet () =
  let net, k = mk_world () in
  let b = Matchmaker.install k ~site:0 ~name:"broker" () in
  let p = Provider.install k ~site:1 ~name:"p1" ~service:"compute" ~capacity:1.0 () in
  Matchmaker.register_provider b p;
  let bc = Briefcase.create () in
  Briefcase.set bc "OP" "lookup";
  Briefcase.set bc "SERVICE" "compute";
  Kernel.launch k ~site:0 ~contact:"broker" bc;
  Net.run net;
  check Alcotest.(option string) "status" (Some "ok") (Briefcase.find_opt bc "STATUS");
  check Alcotest.(option string) "provider" (Some "p1") (Briefcase.find_opt bc "PROVIDER");
  check Alcotest.(option string) "host" (Some "mesh-1") (Briefcase.find_opt bc "PROVIDER-HOST")

let test_lookup_no_provider () =
  let net, k = mk_world () in
  ignore (Matchmaker.install k ~site:0 ~name:"broker" ());
  let bc = Briefcase.create () in
  Briefcase.set bc "OP" "lookup";
  Briefcase.set bc "SERVICE" "nothing";
  Kernel.launch k ~site:0 ~contact:"broker" bc;
  Net.run net;
  check Alcotest.(option string) "status" (Some "no-provider") (Briefcase.find_opt bc "STATUS")

let test_lookup_policy_override_via_folder () =
  let net, k = mk_world () in
  let b = Matchmaker.install k ~site:0 ~name:"broker" ~policy:Policy.Least_loaded () in
  (* two providers with distinct loads: least-loaded picks p-light, but a
     POLICY folder can force round-robin for one request *)
  let heavy = Provider.install k ~site:1 ~name:"p-heavy" ~service:"compute" ~capacity:1.0 () in
  let light = Provider.install k ~site:2 ~name:"p-light" ~service:"compute" ~capacity:1.0 () in
  Matchmaker.register_provider b heavy;
  Matchmaker.register_provider b light;
  (* put load on p-heavy *)
  let bc = Briefcase.create () in
  Briefcase.set bc "WORK" "100.0";
  Kernel.launch k ~site:1 ~contact:"p-heavy" bc;
  Provider.start_load_monitor k heavy ~brokers:[ (0, "broker") ] ~period:0.2;
  Net.run ~until:1.0 net;
  (match Matchmaker.lookup b ~service:"compute" () with
  | Some c -> check Alcotest.string "default policy avoids load" "p-light" c.Policy.provider
  | None -> Alcotest.fail "no provider");
  let q = Briefcase.create () in
  Briefcase.set q "OP" "lookup";
  Briefcase.set q "SERVICE" "compute";
  Briefcase.set q "POLICY" "round-robin";
  Kernel.launch k ~site:0 ~contact:"broker" q;
  Net.run ~until:2.0 net;
  check Alcotest.(option string) "override honoured" (Some "ok") (Briefcase.find_opt q "STATUS");
  check Alcotest.(option string) "rr picks first alphabetically" (Some "p-heavy")
    (Briefcase.find_opt q "PROVIDER")

let test_load_monitor_updates_broker () =
  let net, k = mk_world () in
  let b = Matchmaker.install k ~site:0 ~name:"broker" () in
  let p = Provider.install k ~site:1 ~name:"p1" ~service:"compute" ~capacity:1.0 () in
  Provider.start_load_monitor k p ~brokers:[ (0, "broker") ] ~period:0.5;
  (* enqueue two jobs directly *)
  let submit () =
    let bc = Briefcase.create () in
    Briefcase.set bc "WORK" "100.0";
    Briefcase.set bc "JOB" "j";
    Kernel.launch k ~site:1 ~contact:"p1" bc
  in
  submit ();
  submit ();
  Net.run ~until:3.0 net;
  match Matchmaker.candidates b ~service:"compute" with
  | [ c ] -> Alcotest.(check bool) "load reported" true (c.Policy.load >= 2.0)
  | _ -> Alcotest.fail "provider not in broker db"

let test_provider_serves_fifo_and_notifies () =
  let net, k = mk_world () in
  ignore (Provider.install k ~site:1 ~name:"p1" ~service:"compute" ~capacity:2.0 ());
  let done_jobs = ref [] in
  Kernel.register_native k ~site:0 "job-done" (fun ctx bc ->
      done_jobs :=
        (Option.get (Briefcase.find_opt bc "JOB"), Kernel.now ctx.Kernel.kernel) :: !done_jobs);
  let submit name work =
    let bc = Briefcase.create () in
    Briefcase.set bc "JOB" name;
    Briefcase.set bc "WORK" (string_of_float work);
    Briefcase.set bc "REPLY-HOST" "mesh-0";
    Briefcase.set bc "REPLY-AGENT" "job-done";
    Kernel.launch k ~site:1 ~contact:"p1" bc
  in
  submit "a" 2.0;
  submit "b" 2.0;
  Net.run ~until:10.0 net;
  match List.rev !done_jobs with
  | [ ("a", ta); ("b", tb) ] ->
    (* capacity 2.0 halves the nominal work: ~1s each, sequentially *)
    Alcotest.(check bool) "a at ~1s" true (ta > 0.9 && ta < 1.2);
    Alcotest.(check bool) "b at ~2s" true (tb > 1.9 && tb < 2.2)
  | other -> Alcotest.failf "unexpected completions (%d)" (List.length other)

let test_provider_stats () =
  let net, k = mk_world () in
  let p = Provider.install k ~site:1 ~name:"p1" ~service:"compute" ~capacity:1.0 () in
  let bc = Briefcase.create () in
  Briefcase.set bc "WORK" "1.5";
  Kernel.launch k ~site:1 ~contact:"p1" bc;
  Net.run ~until:10.0 net;
  check Alcotest.int "completed" 1 (Provider.completed p);
  check (Alcotest.float 1e-6) "busy time" 1.5 (Provider.busy_time p);
  check Alcotest.int "queue drained" 0 (Provider.queue_length p)

(* --- tickets --- *)

let test_ticket_verify_and_expiry () =
  let t = Ticket.issue ~key:"k" ~service:"s" ~job:"j" ~now:10.0 ~ttl:5.0 in
  Alcotest.(check bool) "valid now" true (Ticket.valid ~key:"k" ~now:12.0 t);
  Alcotest.(check bool) "expired" false (Ticket.valid ~key:"k" ~now:15.1 t);
  Alcotest.(check bool) "wrong key" false (Ticket.valid ~key:"x" ~now:12.0 t);
  match Ticket.of_wire (Ticket.wire t) with
  | Ok t' -> Alcotest.(check bool) "wire roundtrip" true (t = t')
  | Error e -> Alcotest.failf "roundtrip: %s" e

let test_provider_enforces_tickets () =
  let net, k = mk_world () in
  Ticket.install_agent k ~site:0 ~key:"tkey" ~ttl:60.0;
  let p =
    Provider.install k ~site:1 ~name:"p1" ~service:"compute" ~capacity:1.0
      ~ticket_key:"tkey" ()
  in
  (* without ticket: rejected *)
  let bc1 = Briefcase.create () in
  Briefcase.set bc1 "WORK" "1.0";
  Kernel.launch k ~site:1 ~contact:"p1" bc1;
  Net.run ~until:1.0 net;
  check Alcotest.int "rejected" 1 (Provider.rejected p);
  (* with ticket: served.  Get the ticket from the ticket agent first. *)
  let bc2 = Briefcase.create () in
  Briefcase.set bc2 "SERVICE" "compute";
  Briefcase.set bc2 "JOB" "j1";
  Kernel.launch k ~site:0 ~contact:"ticket" bc2;
  Net.run ~until:2.0 net;
  let tkt = Option.get (Briefcase.find_opt bc2 "TICKET") in
  let bc3 = Briefcase.create () in
  Briefcase.set bc3 "WORK" "1.0";
  Briefcase.set bc3 "TICKET" tkt;
  Kernel.launch k ~site:1 ~contact:"p1" bc3;
  Net.run ~until:10.0 net;
  check Alcotest.int "completed with ticket" 1 (Provider.completed p);
  (* ticket for the wrong service is refused *)
  let bc4 = Briefcase.create () in
  Briefcase.set bc4 "SERVICE" "other";
  Briefcase.set bc4 "JOB" "j2";
  Kernel.launch k ~site:0 ~contact:"ticket" bc4;
  Net.run ~until:11.0 net;
  let bc5 = Briefcase.create () in
  Briefcase.set bc5 "WORK" "1.0";
  Briefcase.set bc5 "TICKET" (Option.get (Briefcase.find_opt bc4 "TICKET"));
  Kernel.launch k ~site:1 ~contact:"p1" bc5;
  Net.run ~until:20.0 net;
  check Alcotest.int "wrong-service ticket rejected" 2 (Provider.rejected p)

let test_crashed_provider_ages_out () =
  let net, k = mk_world () in
  let b = Matchmaker.install k ~site:0 ~name:"broker" ~max_report_age:2.0 () in
  let p = Provider.install k ~site:1 ~name:"p1" ~service:"compute" ~capacity:1.0 () in
  Provider.start_load_monitor k p ~brokers:[ (0, "broker") ] ~period:0.5;
  Net.run ~until:2.0 net;
  Alcotest.(check bool) "visible while reporting" true
    (Matchmaker.lookup b ~service:"compute" () <> None);
  (* kill the provider's site: reports stop, entry goes stale *)
  Net.crash net 1;
  Net.run ~until:10.0 net;
  Alcotest.(check bool) "aged out after crash" true
    (Matchmaker.lookup b ~service:"compute" () = None);
  check Alcotest.(list string) "no stale services advertised" []
    (Matchmaker.services b)

(* The monitor reuses one report briefcase across ticks.  The link is
   slower than the period, so tick k's report is still in flight when tick
   k+1 sets LOAD again, and a job arrives between every two ticks: a report
   that shared the monitor's briefcase, or kept a LOAD set earlier, would
   show a queue length other than the one at its own tick. *)
let test_report_load_is_its_ticks () =
  let net = Net.create (Topology.full_mesh ~latency:0.7 2) in
  let k = Kernel.create net in
  let loads = ref [] in
  Kernel.register_native k ~site:0 "broker" (fun _ bc ->
      loads := Briefcase.find_opt bc "LOAD" :: !loads);
  let p = Provider.install k ~site:1 ~name:"p1" ~service:"compute" ~capacity:1.0 () in
  Provider.start_load_monitor k p ~brokers:[ (0, "broker") ] ~period:0.5;
  for i = 0 to 7 do
    ignore
      (Net.schedule net ~after:(0.25 +. (0.5 *. float_of_int i)) (fun () ->
           let bc = Briefcase.create () in
           Briefcase.set bc "WORK" "1000.0";
           Kernel.launch k ~site:1 ~contact:"p1" bc))
  done;
  (* ticks at 0, 0.5, .., 3.0 are delivered by 4.0; tick i saw i jobs *)
  Net.run ~until:4.0 net;
  check Alcotest.(list (option string)) "each report carries its tick's queue length"
    (List.init 7 (fun i -> Some (string_of_int i)))
    (List.rev !loads)

(* A report refreshes a known provider's load and report time whatever its
   CAPACITY says; only a provider the broker has not seen takes it, with the
   1.0 default when it is missing or malformed. *)
let test_report_capacity_read_on_insert () =
  List.iter
    (fun capacity ->
      let net, k = mk_world () in
      let b = Matchmaker.install k ~site:0 ~name:"broker" () in
      let p = Provider.install k ~site:1 ~name:"p1" ~service:"compute" ~capacity:4.0 () in
      Matchmaker.register_provider b p;
      List.iter
        (fun provider ->
          let bc = Briefcase.create () in
          Briefcase.set bc "OP" "report";
          Briefcase.set bc "PROVIDER" provider;
          Briefcase.set bc "SERVICE" "compute";
          Briefcase.set bc "HOST" "site-1";
          Option.iter (Briefcase.set bc "CAPACITY") capacity;
          Briefcase.set bc "LOAD" "3";
          ignore
            (Net.schedule net ~after:2.0 (fun () -> Kernel.launch k ~site:0 ~contact:"broker" bc)))
        [ "p1"; "p9" ];
      Net.run net;
      let got =
        List.map
          (fun c -> (c.Policy.provider, (c.Policy.capacity, c.Policy.load, c.Policy.report_age)))
          (Matchmaker.candidates b ~service:"compute")
      in
      check
        Alcotest.(list (pair string (triple (float 0.0) (float 0.0) (float 0.0))))
        (Option.value ~default:"missing" capacity)
        [ ("p1", (4.0, 3.0, 0.0)); ("p9", (1.0, 3.0, 0.0)) ]
        got)
    [ None; Some "fast"; Some "" ]

(* --- routing overlay --- *)

module Routing = Broker.Routing

(* a chain of brokers b0 - b1 - b2; the provider is registered only at b2 *)
let routed_world () =
  let net = Net.create (Topology.full_mesh 4) in
  let k = Kernel.create net in
  let b0 = Matchmaker.install k ~site:0 ~name:"b0" () in
  let b1 = Matchmaker.install k ~site:1 ~name:"b1" () in
  let b2 = Matchmaker.install k ~site:2 ~name:"b2" () in
  let r = Routing.create k ~advert_period:0.5 () in
  Routing.add_broker r b0;
  Routing.add_broker r b1;
  Routing.add_broker r b2;
  Routing.connect r b0 b1;
  Routing.connect r b1 b2;
  let p = Provider.install k ~site:3 ~name:"far-prov" ~service:"compute" ~capacity:1.0 () in
  Matchmaker.register_provider b2 p;
  (net, k, r, b0, b1, b2)

let test_routing_tables_converge () =
  let net, _, r, b0, b1, _ = routed_world () in
  Net.run ~until:5.0 net;
  (match Routing.routes r b1 with
  | [ { Routing.service = "compute"; cost = 1; via = "b2" } ] -> ()
  | other -> Alcotest.failf "b1 table unexpected (%d entries)" (List.length other));
  match Routing.routes r b0 with
  | [ { Routing.service = "compute"; cost = 2; via = "b1" } ] -> ()
  | other -> Alcotest.failf "b0 table unexpected (%d entries)" (List.length other)

let test_routed_lookup_resolves_remotely () =
  let net, _, r, b0, _, _ = routed_world () in
  Net.run ~until:5.0 net;
  let result = ref None in
  Routing.routed_lookup r ~from:b0 ~service:"compute" ~on_reply:(fun x -> result := Some x);
  Net.run ~until:10.0 net;
  match !result with
  | Some (Ok (c, hops)) ->
    check Alcotest.string "provider" "far-prov" c.Policy.provider;
    check Alcotest.int "two broker hops" 2 hops
  | Some (Error e) -> Alcotest.failf "lookup failed: %s" e
  | None -> Alcotest.fail "no reply"

let test_routed_lookup_local_hit_zero_hops () =
  let net, _, r, _, _, b2 = routed_world () in
  Net.run ~until:5.0 net;
  let result = ref None in
  Routing.routed_lookup r ~from:b2 ~service:"compute" ~on_reply:(fun x -> result := Some x);
  Net.run ~until:10.0 net;
  match !result with
  | Some (Ok (_, hops)) -> check Alcotest.int "resolved locally" 0 hops
  | _ -> Alcotest.fail "no local resolution"

let test_routed_lookup_unknown_service () =
  let net, _, r, b0, _, _ = routed_world () in
  Net.run ~until:5.0 net;
  let result = ref None in
  Routing.routed_lookup r ~from:b0 ~service:"nothing" ~on_reply:(fun x -> result := Some x);
  Net.run ~until:10.0 net;
  match !result with
  | Some (Error "no-provider") -> ()
  | _ -> Alcotest.fail "expected no-provider"

let test_routes_expire_when_broker_dies () =
  let net, _, r, b0, _, _ = routed_world () in
  Net.run ~until:5.0 net;
  Alcotest.(check bool) "route present" true (Routing.routes r b0 <> []);
  (* kill the chain at b1: b0 stops hearing adverts and the route ages out *)
  Net.crash net 1;
  Net.run ~until:20.0 net;
  let result = ref None in
  Routing.routed_lookup r ~from:b0 ~service:"compute" ~on_reply:(fun x -> result := Some x);
  Net.run ~until:30.0 net;
  match !result with
  | Some (Error "no-provider") -> ()
  | Some (Ok _) -> Alcotest.fail "stale route used after expiry"
  | Some (Error e) -> Alcotest.failf "unexpected error %s" e
  | None -> Alcotest.fail "no reply"

(* --- protected agents --- *)

let test_protected_agent_brokering () =
  let net, k = mk_world () in
  let meetings = ref [] in
  Kernel.register_native k ~site:0 "secret-oracle" (fun _ bc ->
      meetings := Option.value ~default:"?" (Briefcase.find_opt bc "REQUESTER") :: !meetings);
  let pr =
    Protect.install k ~site:0 ~public_name:"oracle-broker" ~secret_name:"secret-oracle"
      ~policy:{ Protect.allowed = Some [ "alice"; "carol" ]; min_interval = 0.5 }
      ()
  in
  let request who =
    let bc = Briefcase.create () in
    Briefcase.set bc "REQUESTER" who;
    Kernel.launch k ~site:0 ~contact:"oracle-broker" bc
  in
  request "alice";
  request "bob";
  request "carol";
  Net.run ~until:10.0 net;
  check Alcotest.(list string) "only allowed requesters meet, in order" [ "alice"; "carol" ]
    (List.rev !meetings);
  check Alcotest.int "denied" 1 (Protect.denied pr);
  check Alcotest.int "forwarded" 2 (Protect.forwarded pr)

let test_protected_rate_limit_spacing () =
  let net, k = mk_world () in
  let times = ref [] in
  Kernel.register_native k ~site:0 "secret2" (fun ctx _ ->
      times := Kernel.now ctx.Kernel.kernel :: !times);
  ignore
    (Protect.install k ~site:0 ~public_name:"pb2" ~secret_name:"secret2"
       ~policy:{ Protect.allowed = None; min_interval = 1.0 }
       ());
  for _ = 1 to 3 do
    Kernel.launch k ~site:0 ~contact:"pb2" (Briefcase.create ())
  done;
  Net.run ~until:10.0 net;
  match List.rev !times with
  | [ t1; t2; t3 ] ->
    Alcotest.(check bool) "spaced by >= 1s" true (t2 -. t1 >= 1.0 && t3 -. t2 >= 1.0)
  | other -> Alcotest.failf "expected 3 meetings, got %d" (List.length other)

(* --- quiescence: load monitors are daemons --- *)

(* Providers reporting load forever, as in E5.  The monitors are daemons,
   so an unbounded [Net.run] ends once the non-daemon work is done, with
   the monitors still scheduled. *)
let monitored_world () =
  let net, k = mk_world () in
  let broker = Matchmaker.install k ~site:0 ~name:"broker" () in
  List.iter
    (fun site ->
      let p =
        Provider.install k ~site ~name:(Printf.sprintf "p%d" site) ~service:"compute"
          ~capacity:1.0 ()
      in
      Matchmaker.register_provider broker p;
      Provider.start_load_monitor k p ~brokers:[ (0, "broker") ] ~period:0.3)
    [ 1; 2 ];
  (net, k, broker)

(* A daemon that fails the test if the run is still going at 1000 s: far
   past the end these runs expect, and reached in milliseconds when a bug
   lets a load monitor keep the run alive.  Cancel it once the run is
   over. *)
let watchdog net =
  Net.schedule net ~daemon:true ~after:1000.0 (fun () ->
      Alcotest.fail "Net.run still going at 1000 s: a daemon keeps it alive")

let test_booking_run_ends_at_its_last_event () =
  let net, k, broker = monitored_world () in
  let dog = watchdog net in
  let booked_at = ref None in
  let b =
    Broker.Booking.book k ~client:3 ~broker:(0, "broker") ~service:"compute" ~timeout:10.0
      ~on_done:(fun _ -> booked_at := Some (Net.now net))
      ~id:"one" ()
  in
  Net.run net;
  Netsim.Engine.cancel dog;
  (match Broker.Booking.result b with
  | Some (Broker.Booking.Booked _) -> ()
  | Some (Broker.Booking.Failed _) | None -> Alcotest.fail "booking did not complete");
  (match !booked_at with
  | Some t -> Alcotest.(check bool) "booked within its first attempt" true (t < 10.0)
  | None -> Alcotest.fail "on_done never fired");
  (* the booking's last event is its attempt timer, armed at t=0 *)
  check (Alcotest.float 1e-9) "clock at the attempt timer" 10.0 (Net.now net);
  Alcotest.(check bool) "load monitors still scheduled" true
    (Netsim.Engine.pending (Net.engine net) > 0);
  Alcotest.(check bool) "and they reported while the run lasted" true
    (List.length (Matchmaker.candidates broker ~service:"compute") = 2)

let test_sleeping_agent_keeps_run_alive () =
  let net, k, _ = monitored_world () in
  let dog = watchdog net in
  let woke_at = ref None in
  Kernel.register_native k ~site:3 "napper" (fun ctx _ ->
      Kernel.sleep ctx 20.1;
      woke_at := Some (Kernel.now ctx.Kernel.kernel));
  Kernel.launch k ~site:3 ~contact:"napper" (Briefcase.create ());
  Net.run net;
  Netsim.Engine.cancel dog;
  check Alcotest.(option (float 1e-9)) "the sleeper woke" (Some 20.1) !woke_at;
  check (Alcotest.float 1e-9) "and the run ended there" 20.1 (Net.now net)

let () =
  Alcotest.run "broker"
    [
      ( "policy",
        [
          Alcotest.test_case "least loaded" `Quick test_policy_least_loaded;
          Alcotest.test_case "weighted" `Quick test_policy_weighted;
          Alcotest.test_case "round robin" `Quick test_policy_round_robin_cycles;
          Alcotest.test_case "empty" `Quick test_policy_empty;
          Alcotest.test_case "names" `Quick test_policy_names_roundtrip;
        ] );
      ( "matchmaker",
        [
          Alcotest.test_case "register + lookup" `Quick test_register_and_lookup;
          Alcotest.test_case "lookup via meet" `Quick test_lookup_via_meet;
          Alcotest.test_case "no provider" `Quick test_lookup_no_provider;
          Alcotest.test_case "per-request policy override" `Quick
            test_lookup_policy_override_via_folder;
          Alcotest.test_case "load monitor" `Quick test_load_monitor_updates_broker;
          Alcotest.test_case "crashed provider ages out" `Quick test_crashed_provider_ages_out;
          Alcotest.test_case "report LOAD is its tick's" `Quick test_report_load_is_its_ticks;
          Alcotest.test_case "report CAPACITY read on insert" `Quick
            test_report_capacity_read_on_insert;
        ] );
      ( "provider",
        [
          Alcotest.test_case "fifo + notify" `Quick test_provider_serves_fifo_and_notifies;
          Alcotest.test_case "stats" `Quick test_provider_stats;
        ] );
      ( "ticket",
        [
          Alcotest.test_case "verify + expiry" `Quick test_ticket_verify_and_expiry;
          Alcotest.test_case "provider enforcement" `Quick test_provider_enforces_tickets;
        ] );
      ( "routing",
        [
          Alcotest.test_case "tables converge" `Quick test_routing_tables_converge;
          Alcotest.test_case "remote resolution" `Quick test_routed_lookup_resolves_remotely;
          Alcotest.test_case "local hit" `Quick test_routed_lookup_local_hit_zero_hops;
          Alcotest.test_case "unknown service" `Quick test_routed_lookup_unknown_service;
          Alcotest.test_case "routes expire" `Quick test_routes_expire_when_broker_dies;
        ] );
      ( "protect",
        [
          Alcotest.test_case "brokering + allow-list" `Quick test_protected_agent_brokering;
          Alcotest.test_case "rate limiting" `Quick test_protected_rate_limit_spacing;
        ] );
      ( "quiescence",
        [
          Alcotest.test_case "booking run ends at its last event" `Quick
            test_booking_run_ends_at_its_last_event;
          Alcotest.test_case "sleeping agent keeps run alive" `Quick
            test_sleeping_agent_keeps_run_alive;
        ] );
    ]
