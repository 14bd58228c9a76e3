(* The repo's benchmark: three seeded workloads against the libraries'
   public APIs, with every simulated output checked.

     tacobench --workload chaos-sweep|agent-tour|exp-broker --seed N
               --seconds S --trace 0|1 [--size full|small]

   A run repeats passes over a fixed list of units until [--seconds] have
   passed.  Each unit is set up (timed as set-up), run (timed as the unit)
   and then checked outside both timings.  Reference chunks run between
   timed segments, and every time is scaled by them (refwork.ml).  The
   last line of standard output is one JSON object: the end-to-end
   metrics with [--trace 0], the per-layer metrics (spans, counters,
   layer probes) with [--trace 1].
   NOTES.md says which number each layer metric should move. *)

module H = Chaos_harness
module E5 = Experiments.E5_broker
module Rng = Tacoma_util.Rng

let default_seed = 1

(* ---- workloads ------------------------------------------------------------- *)

(* What one pass of a workload offers the measuring loop.  Units run in
   order: [prepare i], [call i], [finish i]. *)
type pass = {
  calls : int;
  prepare : int -> unit;  (** build unit [i]'s inputs and world: set-up *)
  call : pause:(unit -> unit) -> int -> unit;
      (** the timed unit; a long one may [pause] between slices of its work *)
  finish : int -> bool * string;  (** invariants held, simulated output (pinned) *)
  layer : unit -> (string * float) list;  (** workload-level layer counters *)
}

type workload = {
  name : string;
  pinned : int -> bool;  (** do the pins apply to this seed? *)
  setup : seed:int -> small:bool -> pass;
}

let chaos_sweep =
  let setup ~seed ~small =
    let plan = ref [] and verdict = ref None in
    let done_ = ref [] in
    {
      calls = (if small then 10 else 200);
      prepare = (fun i -> plan := H.plan_of_seed ~seed:(seed + i) ());
      call = (fun ~pause:_ i -> verdict := Some (H.run_seed ~plan:!plan ~seed:(seed + i) ()));
      finish =
        (fun _ ->
          let v = Option.get !verdict in
          done_ := v :: !done_;
          (H.passed v, H.verdict_json v));
      layer =
        (fun () ->
          let sum f = float_of_int (List.fold_left (fun a v -> a + f v) 0 !done_) in
          [
            ("guard.relaunches", sum (fun v -> v.H.v_relaunches));
            ("guard.giveups", sum (fun v -> v.H.v_giveups));
            ("broker.failovers", sum (fun v -> v.H.v_failovers));
            ("chaos.completed_ratio", sum (fun v -> v.H.v_completed) /. sum (fun v -> v.H.v_journeys));
            ("netsim.msgs_sent", sum (fun v -> v.H.v_msgs_sent));
            ("netsim.bytes_sent", sum (fun v -> v.H.v_bytes_sent));
            ("netsim.msgs_dropped", sum (fun v -> v.H.v_msgs_dropped));
          ]);
    }
  in
  { name = "chaos-sweep"; pinned = (fun s -> s = default_seed); setup }

(* The run's CODE variants (also the SHA-256 probe's input) and the stream
   each world draws from. *)
let tour_codes ~seed = Tour.gen_codes (Rng.create (Int64.of_int (0x70c0de + seed)))
let tour_master ~seed = Rng.create (Int64.of_int (0x7041 + seed))
let tour_shape () = Rng.create 0x5a9eL

let agent_tour =
  let setup ~seed ~small =
    let codes = tour_codes ~seed and master = tour_master ~seed and shape = tour_shape () in
    let world = ref None and counts = ref [] in
    {
      calls = (if small then 5 else 200);
      prepare =
        (fun _ -> world := Some (Tour.build ~codes ~shape:(Rng.split shape) (Rng.split master)));
      call = (fun ~pause:_ _ -> Tour.run (Option.get !world));
      finish =
        (fun _ ->
          let w = Option.get !world in
          world := None;
          counts := Tour.counts w :: !counts;
          (Tour.check w, Tour.output w));
      layer =
        (fun () ->
          let cs = !counts in
          let sum f = float_of_int (List.fold_left (fun a c -> a + f c) 0 cs) in
          let ctr i = sum (fun c -> c.Tour.counters.(i)) in
          let ratio h m = if h +. m = 0.0 then 0.0 else h /. (h +. m) in
          [
            ("tscript.parse_hit_ratio", ratio (ctr 0) (ctr 1));
            ("tscript.expr_hit_ratio", ratio (ctr 2) (ctr 3));
            ("core.codecache_hit_ratio", ratio (ctr 4) (ctr 5));
            ("core.codecache_fetches", ctr 6);
            ("tour.interp_steps", List.fold_left (fun a c -> a +. c.Tour.interp_steps) 0.0 cs);
            ("core.activations", sum (fun c -> c.Tour.activations));
            ("core.migrations", sum (fun c -> c.Tour.migrations));
            ("netsim.msgs_sent", sum (fun c -> c.Tour.msgs_sent));
            ("netsim.bytes_sent", sum (fun c -> c.Tour.bytes_sent));
            ("netsim.msgs_dropped", sum (fun c -> c.Tour.msgs_dropped));
          ]);
    }
  in
  { name = "agent-tour"; pinned = (fun s -> s = default_seed); setup }

(* E5 as [tacoma exp e5] runs it, with only the report period raised, one
   policy row per unit (see e5world.ml).  E5 seeds its own arrivals, so its
   pins hold for every workload seed. *)
let e5_params = { E5.default_params with report_period = 2.0 }

let exp_broker =
  let setup ~seed:_ ~small:_ =
    let params = e5_params in
    let policies = Array.of_list Broker.Policy.all in
    let world = ref None and stats = ref [] in
    {
      calls = Array.length policies;
      prepare = (fun i -> world := Some (E5world.build params policies.(i)));
      call = (fun ~pause _ -> E5world.run ~pause (Option.get !world));
      finish =
        (fun _ ->
          let w = Option.get !world in
          world := None;
          stats := Netsim.Net.stats w.E5world.net :: !stats;
          let r = E5world.row w in
          (r.jobs = params.E5.jobs, E5world.row_text r));
      layer =
        (fun () ->
          let sum f = float_of_int (List.fold_left (fun a st -> a + f st) 0 !stats) in
          [
            ("netsim.msgs_sent", sum Netsim.Netstats.messages_sent);
            ("netsim.bytes_sent", sum Netsim.Netstats.bytes_sent);
            ("netsim.msgs_dropped", sum Netsim.Netstats.messages_dropped);
          ]);
    }
  in
  { name = "exp-broker"; pinned = (fun _ -> true); setup }

let workloads = [ chaos_sweep; agent_tour; exp_broker ]

(* exp-broker's rows, built by e5world.ml, against [E5_broker.run]'s. *)
let check_e5 () =
  let ours =
    List.map
      (fun policy ->
        let w = E5world.build e5_params policy in
        E5world.run ~pause:ignore w;
        E5world.row_text (E5world.row w))
      Broker.Policy.all
  in
  let theirs = List.map E5world.row_text (E5.run ~params:e5_params ()) in
  List.iter2
    (fun a b -> if a <> b then Printf.eprintf "e5world: %s\nE5_broker: %s\n" a b)
    ours theirs;
  ours = theirs

(* ---- pins ------------------------------------------------------------------- *)

(* pins/<workload>.txt: one "<unit index> <md5 of its output>" line per
   unit, for the default seed at full size.  A run checks the units it has
   in common with the file. *)
let pin_path dir wl = Filename.concat dir (wl.name ^ ".txt")

let load_pins path =
  let tbl = Hashtbl.create 256 in
  if Sys.file_exists path then
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.iter (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ i; d ] -> Hashtbl.replace tbl (int_of_string i) d
           | _ -> ());
  tbl

let digest out = Digest.to_hex (Digest.string out)

let write_pins path outputs =
  Out_channel.with_open_text path (fun oc ->
      List.iteri (fun i out -> Printf.fprintf oc "%d %s\n" i (digest out)) outputs)

(* ---- measuring ---------------------------------------------------------------- *)

let secs ns = float_of_int ns *. 1e-9


let median = Probes.median

(* Nearest-rank percentile of a sorted array. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* The 95th percentile, or, with too few samples to leave ten beyond it,
   the highest percentile that does, but never below the median. *)
let tail_percentile a =
  let n = float_of_int (Array.length a) in
  percentile (Float.max 50.0 (Float.min 95.0 (100.0 *. (1.0 -. (10.0 /. n))))) a

type pass_record = {
  setup_s : float;  (** set-up of the pass, raw *)
  call_s : float array;  (** each timed unit, raw, reference chunks left out *)
  scaled_s : float array;  (** each timed unit, scaled *)
  scale : float;  (** the pass's [Refwork.scale] *)
  chunk_ns : float;  (** the pass's mean reference chunk *)
  calib_ns : float;  (** same-pass host calibration, ns per loop iteration *)
  alloc : float;  (** words, during the units, reference chunks left out *)
  minor_gcs : int;
  major_gcs : int;
  promoted : float;  (** words *)
  spans : Spans.summary option;
  layer : (string * float) list;
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable pin_checked : int;
  mutable pin_mismatch : int;
  mutable unit_samples : int;
}

let check_unit wl ~seed ~pins ~tally i (ok, out) =
  tally.attempted <- tally.attempted + 1;
  let pin_ok =
    match Hashtbl.find_opt pins i with
    | Some d when wl.pinned seed ->
      tally.pin_checked <- tally.pin_checked + 1;
      String.equal d (digest out)
    | _ -> true
  in
  if not pin_ok then tally.pin_mismatch <- tally.pin_mismatch + 1;
  if not (ok && pin_ok) then tally.failed <- tally.failed + 1

(* Units are scaled in groups: consecutive units (one exp-broker row, a
   few agent-tour worlds, some twenty chaos seeds) whose chunks number at
   least this many are scaled by those chunks, so the scale follows the
   host from one group to the next within a pass. *)
let group_chunks = 32

let run_pass wl ~seed ~small ~traced ~pins ~tally ~pin_out =
  let calib_ns = Probes.calib_loop_ns () in
  let m = Refwork.create () in
  let setup_ns = ref 0 in
  (* a set-up segment: its time counts as set-up, its chunks follow it *)
  let set_up f =
    let before = m.Refwork.measured_ns in
    Refwork.start m;
    let x = f () in
    Refwork.stop m;
    setup_ns := !setup_ns + (m.Refwork.measured_ns - before);
    Refwork.settle m;
    x
  in
  let p = set_up (fun () -> wl.setup ~seed ~small) in
  let call_s = Array.make p.calls 0.0 and scaled_s = Array.make p.calls 0.0 in
  let group = ref 0 and c0 = ref 0 and r0 = ref 0 in
  (* scale units [!group .. last] by the chunks run since the group began *)
  let close_group last =
    let chunks = m.Refwork.chunks - !c0 and ns = m.Refwork.ref_ns - !r0 in
    let k = Refwork.nominal_chunk_ns *. float_of_int chunks /. float_of_int (max 1 ns) in
    for j = !group to last do
      scaled_s.(j) <- call_s.(j) *. k
    done;
    group := last + 1;
    c0 := m.Refwork.chunks;
    r0 := m.Refwork.ref_ns
  in
  let alloc = ref 0.0 and minor = ref 0 and major = ref 0 and promoted = ref 0.0 in
  let outputs = ref [] in
  let pause () = Refwork.pause m in
  if traced then Spans.clear ();
  for i = 0 to p.calls - 1 do
    set_up (fun () -> p.prepare i);
    let g0 = Gc.quick_stat () in
    let w0 = m.Refwork.measured_words and t0 = m.Refwork.measured_ns in
    Spans.enabled := traced;
    Refwork.start m;
    if traced then begin
      let sp = Spans.open_span Spans.Unit in
      p.call ~pause i;
      Spans.close_span sp
    end
    else p.call ~pause i;
    Refwork.stop m;
    Spans.enabled := false;
    let g1 = Gc.quick_stat () in
    call_s.(i) <- secs (m.Refwork.measured_ns - t0);
    alloc := !alloc +. float_of_int (m.Refwork.measured_words - w0);
    minor := !minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    promoted := !promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    Refwork.settle m;
    if i = p.calls - 1 then begin
      if m.Refwork.chunks = !c0 then Refwork.run_chunks m 1;
      close_group i
    end
    else if m.Refwork.chunks - !c0 >= group_chunks then close_group i;
    let r = p.finish i in
    check_unit wl ~seed ~pins ~tally i r;
    outputs := snd r :: !outputs
  done;
  Option.iter (fun path -> write_pins path (List.rev !outputs)) pin_out;
  tally.unit_samples <- p.calls;
  {
    setup_s = secs !setup_ns;
    call_s;
    scaled_s;
    scale = Refwork.scale m;
    chunk_ns = Refwork.chunk_ns m;
    calib_ns;
    alloc = !alloc;
    minor_gcs = !minor;
    major_gcs = !major;
    promoted = !promoted;
    spans = (if traced then Some (Spans.summarize ()) else None);
    layer = p.layer ();
  }

(* ---- output ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json ms =
  String.concat ","
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name) (json_number value)
           (json_string unit))
       ms)

(* ---- metrics ------------------------------------------------------------------- *)

let of_passes f l = Array.of_list (List.map f l)

let med f l = median (of_passes f l)

let sum = Array.fold_left ( +. ) 0.0

(* Times are scaled by their pass's reference chunks (refwork.ml) and
   summarised by the median over the run's passes. *)
let scaled_wall r = sum r.scaled_s

let end_to_end plain ~tally =
  let unit_ms r =
    let a = Array.map (fun s -> s *. 1e3) r.scaled_s in
    Array.sort compare a;
    a
  in
  [
    ("setup_s", med (fun r -> r.setup_s *. r.scale) plain, "s");
    ("wall_s", med scaled_wall plain, "s");
    ("unit_p50_ms", med (fun r -> percentile 50.0 (unit_ms r)) plain, "ms");
    ("unit_p95_ms", med (fun r -> tail_percentile (unit_ms r)) plain, "ms");
    ("alloc_mwords", med (fun r -> r.alloc) plain /. 1e6, "Mwords");
    ( "top_heap_mb",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6,
      "MB" );
    ( "completed_frac",
      float_of_int (tally.attempted - tally.failed) /. float_of_int (max 1 tally.attempted),
      "frac" );
  ]

let per_layer plain traced ~seed ~calib_ns =
  let span f = med (fun r -> f (Option.get r.spans)) traced in
  let span_s f = med (fun r -> secs (f (Option.get r.spans)) *. r.scale) traced in
  let layer name =
    match plain with
    | r :: _ -> Option.value ~default:0.0 (List.assoc_opt name r.layer)
    | [] -> 0.0
  in
  let run_code_s = span_s (fun s -> Spans.total s Spans.Run_code) in
  let migrate_s = span_s (fun s -> Spans.total s Spans.Migrate) in
  let step_self_s = span_s (fun s -> Spans.self s Spans.Step) in
  let unit_s = span_s (fun s -> Spans.total s Spans.Unit) in
  (* probe inputs come from the workloads they belong to *)
  let codes = tour_codes ~seed in
  let finals =
    let master = tour_master ~seed and shape = tour_shape () in
    List.concat_map
      (fun _ ->
        let w = Tour.build ~capture:true ~codes ~shape:(Rng.split shape) (Rng.split master) in
        Tour.run w;
        w.Tour.finals)
      [ 1; 2; 3; 4 ]
  in
  let encode, decode = Probes.codec_mb_s finals in
  let incr_ns, observe_ns = Probes.metrics_ns () in
  [
    ("tscript.run_code_s", run_code_s, "s");
    ( "tscript.steps_per_s",
      (if run_code_s > 0.0 then layer "tour.interp_steps" /. run_code_s else 0.0),
      "1/s" );
    ("tscript.parse_hit_ratio", layer "tscript.parse_hit_ratio", "ratio");
    ("tscript.expr_hit_ratio", layer "tscript.expr_hit_ratio", "ratio");
    ("core.migrate_s", migrate_s, "s");
    ("core.codecache_hit_ratio", layer "core.codecache_hit_ratio", "ratio");
    ("core.codecache_fetches", layer "core.codecache_fetches", "count");
    ("core.activations", layer "core.activations", "count");
    ("core.migrations", layer "core.migrations", "count");
    ("netsim.events", span (fun s -> float_of_int (Spans.count s Spans.Step)), "count");
    ("netsim.step_self_s", step_self_s, "s");
    ("netsim.msgs_sent", layer "netsim.msgs_sent", "count");
    ("netsim.bytes_sent", layer "netsim.bytes_sent", "bytes");
    ("netsim.msgs_dropped", layer "netsim.msgs_dropped", "count");
    ("guard.relaunches", layer "guard.relaunches", "count");
    ("guard.giveups", layer "guard.giveups", "count");
    ("broker.failovers", layer "broker.failovers", "count");
    ("chaos.completed_ratio", layer "chaos.completed_ratio", "ratio");
    ("runtime.minor_gcs", med (fun r -> float_of_int r.minor_gcs) plain, "count");
    ("runtime.major_gcs", med (fun r -> float_of_int r.major_gcs) plain, "count");
    ("runtime.promoted_mwords", med (fun r -> r.promoted) plain /. 1e6, "Mwords");
    ( "trace.overhead_frac",
      (med scaled_wall traced /. med scaled_wall plain) -. 1.0,
      "frac" );
    ( "trace.coverage_frac",
      (if unit_s > 0.0 then (run_code_s +. migrate_s +. step_self_s) /. unit_s else 0.0),
      "frac" );
    ("netsim.fire_ns", Probes.fire_ns (), "ns");
    ("netsim.cancel_ns", Probes.cancel_ns (), "ns");
    ("netsim.send_us", Probes.send_us ~seed, "us");
    ("core.encode_mb_s", encode, "MB/s");
    ("core.decode_mb_s", decode, "MB/s");
    ("util.sha256_mb_s", Probes.sha256_mb_s codes, "MB/s");
    ("cash.issue_validate_us", Probes.issue_validate_us (), "us");
    ("core.meet_us", Probes.meet_us (), "us");
    ("obs.incr_ns", incr_ns, "ns");
    ("obs.observe_ns", observe_ns, "ns");
    ("obs.span_ns", Probes.span_ns (), "ns");
    ("broker.lookup_us", Probes.lookup_us (), "us");
    ("calib.loop_ns", calib_ns, "ns");
    ("host.chunk_us", med (fun r -> r.chunk_ns) (plain @ traced) /. 1e3, "us");
    ("host.raw_wall_s", med (fun r -> sum r.call_s) plain, "s");
  ]

(* ---- main ---------------------------------------------------------------------- *)

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable small : bool;
  mutable pins_dir : string;
  mutable write_pins : bool;
  mutable trace_out : string option;
  mutable commit : string;
  mutable check_e5 : bool;
}

let parse_args () =
  let a =
    {
      workload = "";
      seed = default_seed;
      seconds = 10.0;
      trace = false;
      small = false;
      pins_dir = "perfbench/pins";
      write_pins = false;
      trace_out = None;
      commit = "unknown";
      check_e5 = false;
    }
  in
  let specs =
    [
      ("--workload", Arg.String (fun s -> a.workload <- s), "NAME chaos-sweep, agent-tour or exp-broker");
      ("--seed", Arg.Int (fun n -> a.seed <- n), "N workload seed");
      ("--seconds", Arg.Float (fun s -> a.seconds <- s), "S keep starting passes for S seconds");
      ("--trace", Arg.Int (fun n -> a.trace <- n <> 0), "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--size", Arg.String (fun s -> a.small <- s = "small"), "full|small small passes, for the self-test");
      ("--pins", Arg.String (fun s -> a.pins_dir <- s), "DIR pin directory");
      ("--write-pins", Arg.Unit (fun () -> a.write_pins <- true), " record the first pass's outputs as the pins");
      ("--trace-out", Arg.String (fun s -> a.trace_out <- Some s), "FILE write the last traced pass's spans");
      ("--commit", Arg.String (fun s -> a.commit <- s), "ID source revision, for the provenance record");
      ("--check-e5", Arg.Unit (fun () -> a.check_e5 <- true), " compare exp-broker's rows with E5_broker.run's and exit");
    ]
  in
  Arg.parse specs (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) "tacobench [options]";
  a

let () =
  let a = parse_args () in
  if a.check_e5 then begin
    let ok = check_e5 () in
    print_endline (if ok then "e5 rows match" else "e5 rows differ");
    exit (if ok then 0 else 1)
  end;
  let wl =
    match List.find_opt (fun w -> w.name = a.workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("tacobench: unknown workload " ^ a.workload);
      exit 2
  in
  let pins = load_pins (pin_path a.pins_dir wl) in
  let tally = { attempted = 0; failed = 0; pin_checked = 0; pin_mismatch = 0; unit_samples = 0 } in
  let deadline = Spans.now_ns () + int_of_float (a.seconds *. 1e9) in
  (* a traced run alternates untraced and traced passes, for the overhead *)
  let plain = ref [] and traced = ref [] and passes = ref 0 in
  let min_passes = (if a.small then 1 else 3) + Bool.to_int a.trace in
  while !passes < min_passes || Spans.now_ns () < deadline do
    let t = a.trace && !passes mod 2 = 1 in
    let pin_out = if a.write_pins && !passes = 0 then Some (pin_path a.pins_dir wl) else None in
    let r = run_pass wl ~seed:a.seed ~small:a.small ~traced:t ~pins ~tally ~pin_out in
    if t then traced := r :: !traced else plain := r :: !plain;
    incr passes
  done;
  let plain = List.rev !plain and traced = List.rev !traced in
  let calib_ns = median (of_passes (fun r -> r.calib_ns) (plain @ traced)) in
  (match a.trace_out with
  | Some path when a.trace -> Spans.write_chrome path
  | _ -> ());
  let metrics =
    if a.trace then per_layer plain traced ~seed:a.seed ~calib_ns else end_to_end plain ~tally
  in
  let correct = tally.failed = 0 && tally.attempted > 0 in
  let walls =
    String.concat ","
      (List.map (fun r -> Printf.sprintf "[%.4f,%.4f]" (sum r.call_s) (scaled_wall r)) plain)
  in
  Printf.printf
    "{\"provenance\":{\"commit\":%s,\"nproc\":%d,\"jobs\":1,\"ocaml\":%s,\"workload\":%s,\"seed\":%d,\"trace\":%d,\"size\":%s,\"passes\":%d,\"traced_passes\":%d,\"units\":%d,\"unit_samples\":%d,\"pins_checked\":%d,\"pin_mismatches\":%d,\"calib.loop_ns\":%.6g,\"pass_wall_s_raw_scaled\":[%s]}}\n"
    (json_string a.commit) (Domain.recommended_domain_count ()) (json_string Sys.ocaml_version)
    (json_string wl.name) a.seed (Bool.to_int a.trace)
    (json_string (if a.small then "small" else "full"))
    !passes (List.length traced) tally.attempted tally.unit_samples tally.pin_checked
    tally.pin_mismatch calib_ns walls;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    tally.attempted tally.failed (metrics_json metrics);
  if not correct then exit 1
