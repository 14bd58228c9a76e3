(* The agent-tour workload: worlds the benchmark builds itself.

   A world is a seeded 10-site random topology whose cabinets hold about 60
   DATA records each, a kernel with the code cache on, and 4 agents on
   8-15-stop itineraries with revisits.  Each agent carries one of the run's
   3 generated TScript CODE variants (48 procs plus a filter loop over
   [cabinet list DATA]) and moves over its own transport.  The agent is the
   native shim [tour-hop]: it runs the carried CODE with [Kernel.run_code]
   and moves with [Kernel.migrate], so interpreter time and migration time
   can be timed apart from outside. *)

module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Cabinet = Tacoma_core.Cabinet
module Net = Netsim.Net
module Engine = Netsim.Engine
module Topology = Netsim.Topology
module Netstats = Netsim.Netstats
module Metrics = Obs.Metrics
module Rng = Tacoma_util.Rng

let sites = 10
let records = 60
let agents = 4
let variants = 3
let procs = 48

(* One CODE variant: [procs] small procs of four shapes, then a loop that
   scores every cabinet record with one of them and files a tally. *)
let gen_variant rng v =
  let b = Buffer.create 3072 in
  Printf.bprintf b "# agent-tour CODE variant %d\n" v;
  for i = 0 to procs - 1 do
    let a = 3 + Rng.int rng 97 and c = Rng.int rng 1000 and m = 101 + Rng.int rng 900 in
    match i mod 4 with
    | 0 -> Printf.bprintf b "proc f%d {x} { expr {($x * %d + %d) %% %d} }\n" i a c m
    | 1 -> Printf.bprintf b "proc f%d {x} { expr {($x / %d) %% %d + %d} }\n" i a m c
    | 2 ->
      Printf.bprintf b "proc f%d {x} { if {$x > %d} { expr {$x - %d} } else { expr {$x + %d} } }\n"
        i (c * 100) a m
    | _ -> Printf.bprintf b "proc f%d {x} { expr {[f%d $x] * %d %% %d} }\n" i (i - 1) a m
  done;
  Printf.bprintf b
    {|set n 0
set hits 0
set sum 0
foreach rec [cabinet list DATA] {
  set kv [split $rec =]
  set v [lindex $kv 1]
  set fn f[expr {$v %% %d}]
  set p [$fn $v]
  if {$p > %d} {
    incr hits
    incr sum $p
  }
  incr n
}
folder put TALLY "[host]:$n:$hits:$sum"
|}
    procs (100 + Rng.int rng 300);
  Buffer.contents b

let gen_codes rng = Array.init variants (gen_variant rng)

type world = {
  net : Net.t;
  kernel : Kernel.t;
  launches : (Netsim.Site.id * Briefcase.t) array;
  stops : int array;  (** itinerary length per agent *)
  tallies : string list option array;  (** filled on each agent's last hop *)
  mutable completions : int array;
  mutable finals : Briefcase.t list;  (** last-hop briefcases, when captured *)
}

let transports = [| Kernel.Tcp; Kernel.Horus; Kernel.Rsh |]
let agent_index bc = int_of_string (Briefcase.get bc "AGENT")

(* The [tour-hop] agent: run the carried code here, then move on. *)
let hop w ~capture ctx bc =
  let code = Briefcase.get bc Briefcase.code_folder in
  Spans.within Spans.Run_code (fun () -> Kernel.run_code ctx ~code bc);
  match Folder.pop (Briefcase.folder bc "ITIN") with
  | Some next ->
    let transport =
      match Kernel.transport_of_string (Briefcase.get bc "VIA") with
      | Some tr -> tr
      | None -> invalid_arg "tour-hop: bad VIA folder"
    in
    Spans.within Spans.Migrate (fun () ->
        Kernel.migrate ctx.Kernel.kernel ~src:ctx.Kernel.site ~dst:(int_of_string next)
          ~contact:"tour-hop" ~transport bc)
  | None ->
    let a = agent_index bc in
    w.completions.(a) <- w.completions.(a) + 1;
    w.tallies.(a) <- Some (Folder.to_list (Briefcase.folder bc "TALLY"));
    if capture then w.finals <- Briefcase.copy bc :: w.finals

(* Build one world.  [rng] (from the workload seed) draws the topology,
   the cabinet data, the sites visited and the CODE variants carried;
   [shape] (the same for every seed) draws itinerary lengths and
   transports, so every seed asks for the same amount of work. *)
let build ?(capture = false) ~codes ~shape rng =
  let topo = Topology.random ~rng:(Rng.split rng) ~n:sites ~p:0.35 () in
  let net = Net.create ~seed:(Rng.int64 rng) topo in
  let config = { Kernel.default_config with cache = Some Kernel.default_cache_config } in
  let kernel = Kernel.create ~config net in
  for s = 0 to sites - 1 do
    let cab = Kernel.cabinet kernel s in
    for r = 0 to records - 1 do
      Cabinet.put cab "DATA" (Printf.sprintf "r%d=%d" r (Rng.int rng 100_000))
    done
  done;
  let itinerary () =
    let len = 8 + Rng.int shape 8 in
    let rec go prev k acc =
      if k = 0 then List.rev acc
      else
        let s = (prev + 1 + Rng.int rng (sites - 1)) mod sites in
        go s (k - 1) (s :: acc)
    in
    go (Rng.int rng sites) len []
  in
  let specs =
    Array.init agents (fun a ->
        let stops = itinerary () in
        let bc = Briefcase.create () in
        Briefcase.set bc "AGENT" (string_of_int a);
        Briefcase.set bc "VIA" (Kernel.transport_name (Rng.pick shape transports));
        Briefcase.set bc Briefcase.code_folder codes.(Rng.int rng (Array.length codes));
        Folder.replace (Briefcase.folder bc "ITIN") (List.map string_of_int (List.tl stops));
        (List.hd stops, List.length stops, bc))
  in
  let w =
    {
      net;
      kernel;
      launches = Array.map (fun (s, _, bc) -> (s, bc)) specs;
      stops = Array.map (fun (_, n, _) -> n) specs;
      tallies = Array.make agents None;
      completions = Array.make agents 0;
      finals = [];
    }
  in
  Kernel.register_native kernel "tour-hop" (hop w ~capture);
  w

(* One unit: launch every agent and run the world to quiescence.  Traced,
   the benchmark drives [Engine.step] itself so each event gets a span. *)
let run w =
  Array.iter (fun (site, bc) -> Kernel.launch w.kernel ~site ~contact:"tour-hop" bc) w.launches;
  if not !Spans.enabled then Net.run w.net
  else
    let eng = Net.engine w.net in
    while Spans.within Spans.Step (fun () -> Engine.step eng) do
      ()
    done

(* Exactly-once completion, a full tally, and no deaths. *)
let check w =
  Kernel.deaths w.kernel = 0
  && Array.for_all (fun c -> c = 1) w.completions
  && Array.for_all2
       (fun t n -> match t with Some l -> List.length l = n | None -> false)
       w.tallies w.stops

(* The simulated outputs the pins cover: every agent's TALLY folder plus
   the network's byte count. *)
let output w =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun a t ->
      Printf.bprintf b "agent %d:" a;
      List.iter (Printf.bprintf b " %s") (Option.value ~default:[] t);
      Buffer.add_char b '\n')
    w.tallies;
  Printf.bprintf b "bytes %d\n" (Netstats.bytes_sent (Net.stats w.net));
  Buffer.contents b

(* Layer counters of one finished world, in a fixed order. *)
let counter_names =
  [|
    "tscript.parse_cache.hit";
    "tscript.parse_cache.miss";
    "tscript.expr_cache.hit";
    "tscript.expr_cache.miss";
    "codecache.hits";
    "codecache.misses";
    "codecache.fetches";
  |]

type counts = {
  counters : int array;  (** by [counter_names] *)
  interp_steps : float;
  activations : int;
  migrations : int;
  msgs_sent : int;
  bytes_sent : int;
  msgs_dropped : int;
}

let counts w =
  let m = Net.metrics w.net and st = Net.stats w.net in
  {
    counters = Array.map (fun name -> Metrics.counter_total m name) counter_names;
    interp_steps =
      (match Metrics.histogram m ~labels:[ ("agent", "tour-hop") ] "interp.steps" with
      | Some h -> Obs.Hist.sum h
      | None -> 0.0);
    activations = Kernel.activations w.kernel;
    migrations = Kernel.migrations w.kernel;
    msgs_sent = Netstats.messages_sent st;
    bytes_sent = Netstats.bytes_sent st;
    msgs_dropped = Netstats.messages_dropped st;
  }
