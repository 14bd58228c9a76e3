module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Net = Netsim.Net
module Topology = Netsim.Topology

type row = {
  topology : string;
  sites : int;
  method_ : string;
  executions : int;
  coverage : int;
  byte_hops : int;
  finished_at : float;
}

(* the message payload: meet [mark] delivers the flooded message *)
let naive_script = {|
  meet mark
  set ttl [folder peek TTL]
  if {$ttl > 0} {
    folder set TTL [expr {$ttl - 1}]
    foreach n [neighbors] {
      folder set CODE [selfcode]
      folder set HOST $n
      folder set CONTACT ag_script
      meet rexec
    }
  }
|}

let diameter topo =
  (* BFS from every site; graphs here are small *)
  let n = Topology.site_count topo in
  let worst = ref 0 in
  for src = 0 to n - 1 do
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
    Array.iter (fun d -> if d > !worst then worst := d) dist
  done;
  !worst

let instrumented_world topo =
  let net = Net.create topo in
  let k = Kernel.create net in
  let executions = ref 0 in
  let covered = Hashtbl.create 16 in
  let last_mark = ref 0.0 in
  Kernel.register_native k "mark" (fun ctx _ ->
      incr executions;
      last_mark := Kernel.now ctx.Kernel.kernel;
      Hashtbl.replace covered ctx.Kernel.site ());
  (net, k, executions, covered, last_mark)

let run_naive topo =
  let net, k, executions, covered, last_mark = instrumented_world topo in
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.code_folder naive_script;
  Briefcase.set bc "TTL" (string_of_int (diameter topo));
  Kernel.launch k ~site:0 ~contact:"ag_script" bc;
  Net.run net;
  (!executions, Hashtbl.length covered, Netsim.Netstats.byte_hops (Net.stats net), !last_mark)

let run_diffusion topo =
  let net, k, executions, covered, last_mark = instrumented_world topo in
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.contact_folder "mark";
  Kernel.launch k ~site:0 ~contact:"diffusion" bc;
  Net.run net;
  (!executions, Hashtbl.length covered, Netsim.Netstats.byte_hops (Net.stats net), !last_mark)

let topologies () =
  let rng = Tacoma_util.Rng.create 1234L in
  [
    ("ring-16", Topology.ring 16);
    ("grid-4x4", Topology.grid 4 4);
    ("random-12", Topology.random ~rng ~n:12 ~p:0.25 ());
  ]

let run () =
  List.concat_map
    (fun (tname, topo) ->
      let sites = Topology.site_count topo in
      let mk method_ (executions, coverage, byte_hops, finished_at) =
        { topology = tname; sites; method_; executions; coverage; byte_hops; finished_at }
      in
      [ mk "naive" (run_naive topo); mk "diffusion" (run_diffusion topo) ])
    (topologies ())

let print_table fmt =
  let rows = run () in
  Table.render fmt
    ~title:"E2 flooding: naive cloning vs diffusion with site-local visited folders"
    ~header:[ "topology"; "sites"; "method"; "agent runs"; "coverage"; "byte-hops"; "last delivery (s)" ]
    (List.map
       (fun r ->
         [
           Table.S r.topology;
           Table.I r.sites;
           Table.S r.method_;
           Table.I r.executions;
           Table.I r.coverage;
           Table.I r.byte_hops;
           Table.F2 r.finished_at;
         ])
       rows)
