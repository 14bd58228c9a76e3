(* Rear-guard fault tolerance (paper §5), narrated.

   An auditing agent must visit five data centres in order, spending two
   seconds at each.  Two of the sites will crash mid-journey — one of them
   while the agent is working on it, and later the site holding the active
   rear guard crashes too.  With durable (checkpointed) guards the journey
   still completes.

   Run with: dune exec examples/resilient_journey.exe *)

module Net = Netsim.Net
module Topology = Netsim.Topology
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Chaos = Netsim.Chaos
module Escort = Guard.Escort

let () =
  let net = Net.create (Topology.full_mesh 5) in
  let kernel = Kernel.create net in

  (* the failure schedule: site 2 dies while the agent audits it; site 1
     (which by then holds the rear guard) dies shortly after *)
  Chaos.apply net
    [
      Crash { site = 2; at = 5.0; downtime = 6.0 };
      Crash { site = 1; at = 5.5; downtime = 6.0 };
    ];

  let config =
    {
      Escort.ack_timeout = 4.0;
      retry_period = 2.0;
      max_relaunch = 10;
      transport = Kernel.Tcp;
      durable = true;
    }
  in
  let journey =
    Escort.guarded_journey kernel ~config ~id:"audit"
      ~itinerary:[ 0; 1; 2; 3; 4 ]
      ~work:(fun ctx ~hop bc ->
        let k = ctx.Kernel.kernel in
        Printf.printf "[%6.2fs] auditing %s (stop %d)\n" (Kernel.now k)
          (Kernel.site_name k ctx.Kernel.site)
          hop;
        Kernel.sleep ctx 2.0;
        Folder.enqueue (Briefcase.folder bc "AUDITED") (Kernel.site_name k ctx.Kernel.site))
      ~on_complete:(fun bc ->
        Printf.printf "[%6.2fs] journey complete; audited: %s\n" (Net.now net)
          (String.concat ", " (Folder.to_list (Briefcase.folder bc "AUDITED"))))
      (Briefcase.create ())
  in
  Net.run ~until:300.0 net;

  let s = Escort.stats journey in
  Printf.printf "\ncompleted: %b\n" s.Escort.completed;
  Printf.printf "rear guards installed: %d\n" s.Escort.guards_installed;
  Printf.printf "relaunches from snapshots: %d\n" s.Escort.relaunches;
  Printf.printf
    "\n(site mesh-2 crashed at t=5.0 while the agent was working there, and\n\
    \ mesh-1 — holding the covering rear guard — crashed at t=5.5.  The\n\
    \ guard's checkpoint survived on mesh-1's disk; after restart it was\n\
    \ resurrected, timed out waiting for a release, and relaunched the agent\n\
    \ from its snapshot.  Without durable guards this double failure loses\n\
    \ the computation — see test/test_guard.ml.)\n"
