(* Layer probes: timed calls into one layer's public functions, fed with the
   inputs of the workload the probe belongs to (see NOTES.md).  Each probe
   repeats a batch of operations until its time budget is spent and reports
   the median batch, in the layer's natural unit. *)

module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Codecache = Tacoma_core.Codecache
module Net = Netsim.Net
module Engine = Netsim.Engine
module Topology = Netsim.Topology
module Metrics = Obs.Metrics
module Tracer = Obs.Tracer
module Rng = Tacoma_util.Rng
module H = Chaos_harness
module E5 = Experiments.E5_broker

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median seconds per call of [f], over at least 7 calls and about 0.2 s,
   after one untimed warm-up call. *)
let time_batch f =
  f ();
  let samples = ref [] and n = ref 0 in
  let t_end = Spans.now_ns () + 200_000_000 in
  while !n < 7 || Spans.now_ns () < t_end do
    let t0 = Spans.now_ns () in
    f ();
    samples := float_of_int (Spans.now_ns () - t0) *. 1e-9 :: !samples;
    incr n
  done;
  median (Array.of_list !samples)

(* A fixed integer loop: the host's speed, so numbers compare across
   hosts.  Every pass runs it once as the first step of its set-up. *)
let calib_iters = 2_000_000

let calib_loop_ns () =
  let t0 = Spans.now_ns () in
  let r = ref 0 in
  for i = 1 to calib_iters do
    r := ((!r * 31) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity !r);
  float_of_int (Spans.now_ns () - t0) /. float_of_int calib_iters

(* ---- netsim -------------------------------------------------------------- *)

(* exp-broker's traffic: one self-rescheduling timer per load monitor, at
   the workload's report period. *)
let fire_ns () =
  let p = { E5.default_params with report_period = 2.0 } in
  let timers = List.length p.E5.providers and per_timer = 2000 in
  let body () =
    let eng = Engine.create () in
    for _ = 1 to timers do
      let left = ref per_timer in
      let rec tick () =
        decr left;
        if !left > 0 then ignore (Engine.schedule eng ~after:p.E5.report_period tick)
      in
      ignore (Engine.schedule eng ~after:p.E5.report_period tick)
    done;
    Engine.run eng
  in
  time_batch body *. 1e9 /. float_of_int (timers * per_timer)

(* chaos-sweep's traffic: a chain of steps, each arming a guard or booking
   timeout that its reply cancels nine times in ten before it fires. *)
let cancel_ns () =
  let c = H.default_config in
  let timeouts = [| c.H.guard.Guard.Escort.ack_timeout; c.H.booking_timeout |] in
  let n = 20_000 in
  let body () =
    let eng = Engine.create () in
    let rec step i () =
      if i < n then begin
        let tm = Engine.schedule eng ~after:timeouts.(i land 1) ignore in
        if i mod 10 <> 0 then Engine.cancel tm;
        ignore (Engine.schedule eng ~after:0.01 (step (i + 1)))
      end
    in
    ignore (Engine.schedule eng ~after:0.0 (step 0));
    Engine.run eng
  in
  time_batch body *. 1e9 /. float_of_int n

(* [Net.send] plus multi-hop delivery on a chaos-sweep topology. *)
let send_us ~seed =
  let c = H.default_config in
  let rng = Rng.create (Int64.of_int (0x5e4d + seed)) in
  let topo = Topology.random ~rng ~n:c.H.sites ~p:c.H.link_prob () in
  let n = 2000 in
  let pairs =
    Array.init n (fun _ ->
        let src = Rng.int rng c.H.sites in
        let dst = (src + 1 + Rng.int rng (c.H.sites - 1)) mod c.H.sites in
        (src, dst, 200 + Rng.int rng 1800))
  in
  let body () =
    let net = Net.create topo in
    List.iter (fun s -> Net.set_handler net s ~key:"probe" ignore) (Net.sites net);
    Array.iter
      (fun (src, dst, size) -> Net.send net ~src ~dst ~size (Netsim.Message.Ping "probe"))
      pairs;
    Net.run net
  in
  time_batch body *. 1e6 /. float_of_int n

(* ---- tacoma_core ----------------------------------------------------------- *)

(* Serialise and parse the final briefcases of an agent-tour. *)
let codec_mb_s (finals : Briefcase.t list) =
  let wires = List.map Briefcase.serialize finals in
  let bytes = float_of_int (List.fold_left (fun a w -> a + String.length w) 0 wires) in
  let reps = 20 in
  let enc () =
    for _ = 1 to reps do
      List.iter (fun bc -> ignore (Sys.opaque_identity (Briefcase.serialize bc))) finals
    done
  in
  let dec () =
    for _ = 1 to reps do
      List.iter (fun w -> ignore (Sys.opaque_identity (Briefcase.deserialize w))) wires
    done
  in
  let mb = bytes *. float_of_int reps /. 1e6 in
  (mb /. time_batch enc, mb /. time_batch dec)

(* Code digests over the agent-tour CODE variants. *)
let sha256_mb_s (codes : string array) =
  let bytes = Array.fold_left (fun a c -> a + String.length c) 0 codes in
  let reps = 20 in
  let body () =
    for _ = 1 to reps do
      Array.iter (fun c -> ignore (Sys.opaque_identity (Codecache.digest [ c ]))) codes
    done
  in
  float_of_int (bytes * reps) /. 1e6 /. time_batch body

(* A native local activation: [launch] then run to quiescence. *)
let meet_us () =
  let net = Net.create (Topology.star 2) in
  let k = Kernel.create net in
  Kernel.register_native k "probe-noop" (fun _ bc -> Briefcase.set bc "DONE" "1");
  let n = 1000 in
  let body () =
    for _ = 1 to n do
      Kernel.launch k ~site:0 ~contact:"probe-noop" (Briefcase.create ());
      Net.run net
    done
  in
  time_batch body *. 1e6 /. float_of_int n

(* ---- cash, broker -------------------------------------------------------- *)

(* One chaos-sweep purchase: mint a bill, then validate-and-reissue it. *)
let issue_validate_us () =
  let mint = Cash.Mint.create ~secret:"perfbench-mint" () in
  let amount = H.default_config.H.purchase_amount and n = 200 in
  let body () =
    for _ = 1 to n do
      match Cash.Mint.validate_and_reissue mint (Cash.Mint.issue mint ~amount) with
      | Ok e -> ignore (Sys.opaque_identity e)
      | Error _ -> failwith "probe: freshly minted bill failed validation"
    done
  in
  time_batch body *. 1e6 /. float_of_int n

(* An exp-broker lookup over its 8 providers and their capacities. *)
let lookup_us () =
  let p = E5.default_params in
  let m = List.length p.E5.providers in
  let net = Net.create (Topology.star m) in
  let k = Kernel.create net in
  let b = Broker.Matchmaker.install k ~site:0 ~name:"broker" () in
  List.iteri
    (fun i capacity ->
      Broker.Matchmaker.register_provider b
        (Broker.Provider.install k ~site:(i + 1)
           ~name:(Printf.sprintf "prov-%d" i)
           ~service:"compute" ~capacity ()))
    p.E5.providers;
  let n = 2000 in
  let body () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Broker.Matchmaker.lookup b ~service:"compute" ()))
    done
  in
  time_batch body *. 1e6 /. float_of_int n

(* ---- obs ------------------------------------------------------------------- *)

(* The kernel's own metric names and label shapes. *)
let metrics_ns () =
  let m = Metrics.create () in
  let n = 20_000 in
  let transport = [| "tcp"; "horus"; "rsh" |] in
  let incr () =
    for i = 1 to n do
      Metrics.incr m "kernel.activations";
      Metrics.incr m ~labels:[ ("transport", transport.(i mod 3)) ] "kernel.migrations"
    done
  in
  let observe () =
    for i = 1 to n do
      Metrics.observe m ~labels:[ ("agent", "tour-hop") ] "interp.steps" (float_of_int i)
    done
  in
  (time_batch incr *. 1e9 /. float_of_int (2 * n), time_batch observe *. 1e9 /. float_of_int n)

let span_ns () =
  let tr = Tracer.create ~enabled:true () in
  let n = 20_000 in
  let body () =
    for i = 1 to n do
      let sp = Tracer.start_span tr ~time:(float_of_int i) ~site:0 ~agent:"probe" "activate:probe" in
      Tracer.end_span tr ~time:(float_of_int i) ~site:0 ~agent:"probe" sp "activate:probe"
    done
  in
  time_batch body *. 1e9 /. float_of_int n
