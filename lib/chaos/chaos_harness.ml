module Rng = Tacoma_util.Rng
module Decimal = Tacoma_util.Decimal
module Topology = Netsim.Topology
module Net = Netsim.Net
module Site = Netsim.Site
module Chaos = Netsim.Chaos
module Netstats = Netsim.Netstats
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Escort = Guard.Escort
module Matchmaker = Broker.Matchmaker
module Provider = Broker.Provider
module Booking = Broker.Booking
module Mint = Cash.Mint
module Audit = Cash.Audit
module Validator = Cash.Validator
module Ecu = Cash.Ecu

type config = {
  sites : int;
  link_prob : float;
  journeys : int;
  hops : int;
  work_per_hop : float;
  bookings : int;
  booking_work : float;
  booking_timeout : float;
  booking_attempts : int;
  purchases : int;
  purchase_amount : int;
  horizon : float;
  drain : float;
  guarded : bool;
  guard : Escort.config;
  profile : Chaos.profile;
}

let default_config =
  {
    sites = 10;
    link_prob = 0.35;
    journeys = 6;
    hops = 5;
    work_per_hop = 0.8;
    bookings = 4;
    booking_work = 1.5;
    booking_timeout = 8.0;
    booking_attempts = 3;
    purchases = 3;
    purchase_amount = 500;
    horizon = 300.0;
    drain = 600.0;
    guarded = true;
    guard =
      {
        Escort.default_config with
        ack_timeout = 4.0;
        retry_period = 2.0;
        max_relaunch = 6;
        durable = true;
      };
    profile = Chaos.default_profile;
  }

type verdict = {
  v_seed : int;
  v_guarded : bool;
  v_events : (string * int) list;
  v_journeys : int;
  v_completed : int;
  v_lost_attributed : int;
  v_relaunches : int;
  v_giveups : int;
  v_bookings_ok : int;
  v_bookings_failed : int;
  v_failovers : int;
  v_duplicate_fulfillments : int;
  v_cash_minted : int;
  v_cash_banked : int;
  v_msgs_sent : int;
  v_msgs_dropped : int;
  v_bytes_sent : int;
  v_violations : string list;
}

let passed v = v.v_violations = []

(* ------------------------------------------------------------------ *)
(* Loss attribution                                                    *)

type probe = {
  jid : string;
  itinerary : Site.id list;
  start : float;
  mutable completions : int;
  mutable journey : Escort.journey option;
}

let overlap (a, b) (c, d) = a <= d && c <= b

(* Is the loss of a guarded journey attributable to the chaos plan?  The
   rear-guard protocol only loses a computation when a guard dies while the
   hop it covers cannot make progress.  We over-approximate from the plan:

   - a guard gave up (relaunch budget exhausted — recorded, not silent);
   - the paper's double-failure window: adjacent itinerary sites down at
     once;
   - the first site crashed around launch time (hop 0 has no guard yet).

   Anything else must be recoverable, and an incomplete journey is a
   violation. *)
let loss_attributable plan p ~work ~giveups =
  giveups > 0
  || Chaos.double_failure_window plan p.itinerary
  ||
  match p.itinerary with
  | s0 :: _ ->
    List.exists
      (fun (s, w) -> s = s0 && overlap w (p.start, p.start +. work +. 5.0))
      (Chaos.crash_windows plan)
  | [] -> false

(* ------------------------------------------------------------------ *)
(* One seeded run                                                      *)

(* Independent split streams, in a fixed order: topology, chaos plan,
   workload placement.  Changing one knob never reshuffles the others. *)
let streams seed =
  let master = Rng.create (Int64.of_int (0x51ded + seed)) in
  let topo_rng = Rng.split master in
  let plan_rng = Rng.split master in
  let wl_rng = Rng.split master in
  (topo_rng, plan_rng, wl_rng)

let plan_of_seed ?(config = default_config) ~seed () =
  let topo_rng, plan_rng, _ = streams seed in
  let topo = Topology.random ~rng:topo_rng ~n:config.sites ~p:config.link_prob () in
  Chaos.mixed ~rng:plan_rng ~topo ~profile:config.profile ~until:config.horizon ()

let run_seed ?(config = default_config) ?plan ~seed () =
  let cfg = config in
  let hops = max 2 (min cfg.hops cfg.sites) in
  let topo_rng, plan_rng, wl_rng = streams seed in
  let topo = Topology.random ~rng:topo_rng ~n:cfg.sites ~p:cfg.link_prob () in
  let net = Net.create ~seed:(Int64.of_int (0xca05 + seed)) ~trace:true topo in
  let k = Kernel.create net in
  let m = Net.metrics net in
  let plan =
    match plan with
    | Some p -> p
    | None -> Chaos.mixed ~rng:plan_rng ~topo ~profile:cfg.profile ~until:cfg.horizon ()
  in
  Chaos.apply net plan;
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let sites_arr = Array.of_list (Topology.sites topo) in
  let pick_site () = sites_arr.(Rng.int wl_rng (Array.length sites_arr)) in
  (* --- guarded journeys ------------------------------------------- *)
  (* Live bilocation detector: the work body registers the journey in
     [active] for the duration of its sleep; a second concurrent execution
     anywhere is the "briefcase at two sites at once" violation.  The
     finally-handler runs even when a site crash aborts the sleep, so a
     killed agent never leaves a stale entry. *)
  let active : (string, Site.id) Hashtbl.t = Hashtbl.create 16 in
  let probes =
    List.init cfg.journeys (fun i ->
        let arr = Array.copy sites_arr in
        Rng.shuffle wl_rng arr;
        let itinerary = Array.to_list (Array.sub arr 0 hops) in
        let start =
          cfg.horizon *. 0.5 *. float_of_int i /. float_of_int (max 1 cfg.journeys)
        in
        { jid = "j" ^ Decimal.of_int i; itinerary; start; completions = 0; journey = None })
  in
  List.iter
    (fun p ->
      let work ctx ~hop _bc =
        (match Hashtbl.find_opt active p.jid with
        | Some other ->
          violate "bilocation: journey %s working at site %d while active at site %d (hop %d)"
            p.jid ctx.Kernel.site other hop
        | None -> ());
        Hashtbl.replace active p.jid ctx.Kernel.site;
        Fun.protect
          ~finally:(fun () -> Hashtbl.remove active p.jid)
          (fun () -> Kernel.sleep ctx cfg.work_per_hop)
      in
      let on_complete _bc = p.completions <- p.completions + 1 in
      ignore
        (Net.schedule net ~after:p.start (fun () ->
             let bc = Briefcase.create () in
             let j =
               if cfg.guarded then
                 Escort.guarded_journey k ~config:cfg.guard ~id:p.jid
                   ~itinerary:p.itinerary ~work ~on_complete bc
               else
                 Escort.unguarded_journey k ~transport:cfg.guard.Escort.transport
                   ~id:p.jid ~itinerary:p.itinerary ~work ~on_complete bc
             in
             p.journey <- Some j)))
    probes;
  (* --- broker bookings -------------------------------------------- *)
  let broker_site = pick_site () in
  let mm = Matchmaker.install k ~site:broker_site ~name:"broker" () in
  for i = 0 to min 3 cfg.sites - 1 do
    let site = pick_site () in
    let p =
      Provider.install k ~site
        ~name:("prov" ^ Decimal.of_int i)
        ~service:"compute"
        ~capacity:(1.0 +. (float_of_int i *. 0.5))
        ()
    in
    Matchmaker.register_provider mm p;
    Provider.start_load_monitor k p ~brokers:[ (broker_site, "broker") ] ~period:7.0
  done;
  let bookings =
    List.init cfg.bookings (fun i ->
        let client = pick_site () in
        let start =
          cfg.horizon *. 0.5
          *. (0.1 +. (float_of_int i /. float_of_int (max 1 cfg.bookings)))
        in
        let cell = ref None in
        ignore
          (Net.schedule net ~after:start (fun () ->
               cell :=
                 Some
                   (Booking.book k ~client
                      ~broker:(broker_site, "broker")
                      ~service:"compute" ~work:cfg.booking_work
                      ~timeout:cfg.booking_timeout
                      ~max_attempts:cfg.booking_attempts
                      ~id:("bk" ^ Decimal.of_int i) ())));
        cell)
  in
  (* --- electronic cash -------------------------------------------- *)
  let mint = Mint.create ~seed:(Int64.of_int (0x0ca5 + seed)) ~secret:"chaos-harness" () in
  let bank_site = pick_site () in
  let witness_site = pick_site () in
  Validator.install k ~site:bank_site mint;
  Audit.install_witness k ~site:witness_site;
  let minted = ref 0 in
  let purchases =
    List.init cfg.purchases (fun i ->
        let customer_site = pick_site () in
        let merchant_site = pick_site () in
        let bills = [ Mint.issue mint ~amount:cfg.purchase_amount ] in
        minted := !minted + cfg.purchase_amount;
        let start =
          cfg.horizon *. 0.5
          *. (0.2 +. (float_of_int i /. float_of_int (max 1 cfg.purchases)))
        in
        let cell = ref None in
        ignore
          (Net.schedule net ~after:start (fun () ->
               let tx = "tx" ^ Decimal.of_int i in
               cell :=
                 Some
                   (Audit.purchase k ~tx ~amount:cfg.purchase_amount ~bills
                      ~customer:("cust-" ^ tx, "ck-" ^ tx, Audit.Honest)
                      ~merchant:("merch-" ^ tx, "mk-" ^ tx, Audit.Honest)
                      ~customer_site ~merchant_site ~witness_site ~bank_site)));
        cell)
  in
  (* --- drive ------------------------------------------------------- *)
  Net.run ~until:(cfg.horizon +. cfg.drain) net;
  (* --- invariants -------------------------------------------------- *)
  let crash_count =
    List.length (List.filter (function Chaos.Crash _ -> true | _ -> false) plan)
  in
  let completed = ref 0
  and lost_attributed = ref 0
  and relaunches = ref 0
  and giveups = ref 0 in
  List.iter
    (fun p ->
      match p.journey with
      | None -> violate "journey %s never started" p.jid
      | Some j ->
        let st = Escort.stats j in
        if p.completions > 1 then
          violate "journey %s completed %d times" p.jid p.completions;
        if st.Escort.duplicate_completions > 0 then
          violate "journey %s final hop executed %d extra times" p.jid
            st.Escort.duplicate_completions;
        (* Each of the (hops-1) guards relaunches at most max_relaunch
           times; a durable guard resurrected after its site restarts may
           start a fresh budget, bounded by the plan's crash count. *)
        let bound =
          cfg.guard.Escort.max_relaunch
          * (List.length p.itinerary - 1)
          * (if cfg.guard.Escort.durable then 1 + crash_count else 1)
        in
        if cfg.guarded && st.Escort.relaunches > bound then
          violate "journey %s relaunched %d times (bound %d)" p.jid
            st.Escort.relaunches bound;
        relaunches := !relaunches + st.Escort.relaunches;
        giveups := !giveups + st.Escort.giveups;
        if p.completions = 1 then incr completed
        else if cfg.guarded then
          if loss_attributable plan p ~work:cfg.work_per_hop ~giveups:st.Escort.giveups
          then incr lost_attributed
          else violate "journey %s lost without attributable chaos cause" p.jid)
    probes;
  let bookings_ok = ref 0 and bookings_failed = ref 0 in
  List.iteri
    (fun i cell ->
      match !cell with
      | None -> violate "booking bk%d never started" i
      | Some b -> (
        match Booking.result b with
        | None -> violate "booking bk%d unresolved after drain" i
        | Some (Booking.Booked _) -> incr bookings_ok
        | Some (Booking.Failed _) -> incr bookings_failed))
    bookings;
  let serial_owner : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let banked = ref 0 in
  List.iteri
    (fun i cell ->
      match !cell with
      | None -> violate "purchase tx%d never started" i
      | Some (p : Audit.purchase) ->
        if p.Audit.merchant_accepted && p.Audit.merchant_rejected then
          violate "purchase %s both accepted and rejected" p.Audit.p_tx;
        banked := !banked + Ecu.total p.Audit.merchant_bills;
        List.iter
          (fun (b : Ecu.t) ->
            (match Hashtbl.find_opt serial_owner b.Ecu.serial with
            | Some tx' ->
              violate "cash serial %s banked by both %s and %s" b.Ecu.serial tx'
                p.Audit.p_tx
            | None -> ());
            Hashtbl.replace serial_owner b.Ecu.serial p.Audit.p_tx)
          p.Audit.merchant_bills)
    purchases;
  if !banked > !minted then
    violate "cash conservation: banked %d > minted %d" !banked !minted;
  let injected = Obs.Metrics.counter_total m "chaos.injected" in
  let skipped = Obs.Metrics.counter_total m "chaos.skipped" in
  if injected + skipped <> List.length plan then
    violate "chaos accounting: injected %d + skipped %d <> plan size %d" injected
      skipped (List.length plan);
  let stats = Net.stats net in
  let sent = Netstats.messages_sent stats in
  let delivered = Netstats.messages_delivered stats in
  let dropped = Netstats.messages_dropped stats in
  (* No-route and partition drops happen at send time, before the message
     counts as sent; only in-transit fates (delivery, loss, dead receiver)
     consume a recorded send.  The slack is messages still in flight. *)
  let drops reason = Obs.Metrics.counter m ~labels:[ ("reason", reason) ] "net.drops" in
  let in_transit_drops = drops "loss" + drops "site-down" in
  if delivered + in_transit_drops > sent then
    violate "netstats: delivered %d + in-transit drops %d > sent %d" delivered
      in_transit_drops sent;
  if drops "loss" + drops "site-down" + drops "no-route" + drops "partition" <> dropped
  then
    violate "netstats: drop reasons don't sum to %d total drops" dropped;
  {
    v_seed = seed;
    v_guarded = cfg.guarded;
    v_events = Chaos.counts plan;
    v_journeys = cfg.journeys;
    v_completed = !completed;
    v_lost_attributed = !lost_attributed;
    v_relaunches = !relaunches;
    v_giveups = !giveups;
    v_bookings_ok = !bookings_ok;
    v_bookings_failed = !bookings_failed;
    v_failovers = Obs.Metrics.counter_total m "broker.failovers";
    v_duplicate_fulfillments = Obs.Metrics.counter_total m "broker.duplicate_fulfillments";
    v_cash_minted = !minted;
    v_cash_banked = !banked;
    v_msgs_sent = sent;
    v_msgs_dropped = dropped;
    v_bytes_sent = Netstats.bytes_sent stats;
    v_violations = List.rev !violations;
  }

(* One task per seed.  Safe because [run_seed] is self-contained: the
   topology, net (with engine, metrics registry and tracer), kernel (with
   its interpreter cache pair), mint and every workload object are built
   inside the call from seed-derived streams — nothing mutable crosses
   seeds, so any interleaving of tasks produces the same verdicts as the
   serial loop, byte for byte. *)
let run_sweep ?config ?plan ?(jobs = 1) ~seeds () =
  Tacoma_util.Pool.map ~jobs (fun seed -> run_seed ?config ?plan ~seed ()) seeds

let all_passed vs = List.for_all passed vs

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let verdict_json v =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"seed\":%d,\"passed\":%b,\"guarded\":%b," v.v_seed (passed v) v.v_guarded;
  add "\"events\":{%s},"
    (String.concat ","
       (List.map (fun (k, n) -> Printf.sprintf "\"%s\":%d" k n) v.v_events));
  add "\"journeys\":%d,\"completed\":%d,\"lost_attributed\":%d," v.v_journeys
    v.v_completed v.v_lost_attributed;
  add "\"relaunches\":%d,\"giveups\":%d," v.v_relaunches v.v_giveups;
  add "\"bookings_ok\":%d,\"bookings_failed\":%d,\"failovers\":%d," v.v_bookings_ok
    v.v_bookings_failed v.v_failovers;
  add "\"duplicate_fulfillments\":%d," v.v_duplicate_fulfillments;
  add "\"cash_minted\":%d,\"cash_banked\":%d," v.v_cash_minted v.v_cash_banked;
  add "\"msgs_sent\":%d,\"msgs_dropped\":%d,\"bytes_sent\":%d," v.v_msgs_sent
    v.v_msgs_dropped v.v_bytes_sent;
  add "\"violations\":[%s]}"
    (String.concat ","
       (List.map (fun s -> "\"" ^ json_escape s ^ "\"") v.v_violations));
  Buffer.contents b

let pp_verdict ppf v =
  Format.fprintf ppf "seed %d: %s — %d/%d journeys, %d relaunches, %d giveups, %d/%d bookings"
    v.v_seed
    (if passed v then "ok" else "VIOLATIONS")
    v.v_completed v.v_journeys v.v_relaunches v.v_giveups v.v_bookings_ok
    (v.v_bookings_ok + v.v_bookings_failed);
  List.iter (fun s -> Format.fprintf ppf "@.  violation: %s" s) v.v_violations
