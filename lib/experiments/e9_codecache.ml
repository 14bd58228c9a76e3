(* E9: the content-addressed code cache against cold code shipping.

   Restart-style migration re-ships the CODE folder on every rexec hop.
   With the cache on, only the first arrival at a site pays for code: later
   hops ship a digest and resolve it locally (or fetch once on a miss).
   Three itinerary shapes probe the three cache regimes: a ring of first
   visits (every hop is a miss plus a fetch — the worst case), a star where
   the hub warms after the first bounce, and a small ring lapped three
   times where laps two and three run entirely warm. *)

module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Net = Netsim.Net
module Topology = Netsim.Topology

type row = {
  shape : string;
  transport : string;
  cached : bool;
  hops : int;
  bytes_per_hop : float;
  s_per_hop : float;
  hits : int;
  misses : int;
  saved_bytes : int;
}

let transports = [ Kernel.Rsh; Kernel.Tcp; Kernel.Horus ]

(* ~4 KiB of agent text: big enough that code dominates the briefcase, the
   regime the optimisation targets *)
let code_payload = String.concat "\n" (List.init 64 (fun i -> Printf.sprintf "proc step_%02d {x} { return [expr {$x + %d}] }" i i))

type shape = { s_name : string; topology : Topology.t; itinerary : int list }

let shapes () =
  [
    (* 8 distinct sites: no revisit, the cache can only lose (every site
       misses and fetches once) *)
    { s_name = "ring-8"; topology = Topology.ring 8; itinerary = [ 1; 2; 3; 4; 5; 6; 7; 0 ] };
    (* hub-and-spoke sweep: the hub is revisited after every spoke *)
    { s_name = "star-4"; topology = Topology.star 5; itinerary = [ 1; 0; 2; 0; 3; 0; 4; 0 ] };
    (* 4-site ring lapped three times: 12 hops, 8 of them revisits *)
    {
      s_name = "revisit-4x3";
      topology = Topology.ring 4;
      itinerary = [ 1; 2; 3; 0; 1; 2; 3; 0; 1; 2; 3; 0 ];
    };
  ]

let run_one ~shape ~transport ~cached =
  let net = Net.create shape.topology in
  let config =
    {
      Kernel.default_config with
      default_transport = transport;
      (* fast horus retries so lossless runs are not dominated by rto *)
      horus = { Kernel.default_config.horus with max_attempts = 10; rto = 0.2 };
      cache = (if cached then Some Kernel.default_cache_config else None);
    }
  in
  let k = Kernel.create ~config net in
  let finished = ref None in
  Kernel.register_native k "e9-hop" (fun ctx bc ->
      let t = ctx.Kernel.kernel in
      match Folder.pop (Briefcase.folder bc "ITINERARY") with
      | None -> finished := Some (Kernel.now t)
      | Some next ->
        Kernel.migrate t ~src:ctx.Kernel.site ~dst:(int_of_string next) ~contact:"e9-hop"
          ~transport bc);
  let bc = Briefcase.create () in
  Folder.replace (Briefcase.folder bc "ITINERARY") (List.map string_of_int shape.itinerary);
  Briefcase.set bc Briefcase.code_folder code_payload;
  Kernel.launch k ~site:0 ~contact:"e9-hop" bc;
  Net.run net;
  let journey_time =
    match !finished with
    | Some t -> t
    | None -> failwith (Printf.sprintf "E9: %s journey did not finish" shape.s_name)
  in
  let hops = List.length shape.itinerary in
  let m = Net.metrics net in
  {
    shape = shape.s_name;
    transport = Kernel.transport_name transport;
    cached;
    hops;
    bytes_per_hop =
      float_of_int (Netsim.Netstats.bytes_sent (Net.stats net)) /. float_of_int hops;
    s_per_hop = journey_time /. float_of_int hops;
    hits = Obs.Metrics.counter_total m "codecache.hits";
    misses = Obs.Metrics.counter_total m "codecache.misses";
    saved_bytes = Kernel.cache_saved_bytes k;
  }

let run () =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun transport ->
          [ run_one ~shape ~transport ~cached:false; run_one ~shape ~transport ~cached:true ])
        transports)
    (shapes ())

let print_table fmt =
  let rows = run () in
  Table.render fmt
    ~title:
      "E9 code cache: bytes and latency per hop, cold shipping vs content-addressed cache"
    ~header:
      [ "shape"; "transport"; "cache"; "hops"; "bytes/hop"; "s/hop"; "hits"; "misses"; "saved B" ]
    (List.map
       (fun r ->
         [
           Table.S r.shape;
           Table.S r.transport;
           Table.S (if r.cached then "on" else "off");
           Table.I r.hops;
           Table.F2 r.bytes_per_hop;
           Table.F r.s_per_hop;
           Table.I r.hits;
           Table.I r.misses;
           Table.I r.saved_bytes;
         ])
       rows)
