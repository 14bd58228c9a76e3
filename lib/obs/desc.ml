type arg = Site | Agent | Int of int | Float of int | Str of int | Text of string | Pair of int * int

type t = { name : arg list; cat : string; msg : arg list; attrs : (string * arg) list }

let make ?(msg = []) ?(attrs = []) ~cat name = { name = [ Text name ]; cat; msg; attrs }

(* ---- net -------------------------------------------------------------------- *)

let net_send = make ~cat:"net" "net.send" ~attrs:[ ("dst", Int 0); ("bytes", Int 1); ("hops", Int 2) ]

let net_deliver =
  make ~cat:"net" "net.deliver" ~attrs:[ ("src", Int 0); ("bytes", Int 1); ("latency", Float 0) ]

let net_drop_site_down =
  make ~cat:"net" "net.drop"
    ~msg:[ Text "site-"; Site; Text " down, dropped "; Int 0; Text " bytes from site-"; Int 1 ]
    ~attrs:[ ("reason", Text "site-down") ]

(* a send or an arrival that found no way to [dst] (argument 0), [bytes]
   (argument 1) long; the event's site is the sender *)
let net_drop ~reason ~prefix =
  make ~cat:"net" "net.drop"
    ~msg:[ Text prefix; Site; Text " -> site-"; Int 0; Text " ("; Int 1; Text " bytes)" ]
    ~attrs:[ ("reason", Text reason); ("dst", Int 0) ]

let net_drop_partition = net_drop ~reason:"partition" ~prefix:"partition site-"
let net_drop_no_route = net_drop ~reason:"no-route" ~prefix:"no-route site-"
let net_drop_loss = net_drop ~reason:"loss" ~prefix:"lost in transit site-"
let net_crash = make ~cat:"net" "net.crash"
let net_restart = make ~cat:"net" "net.restart"

(* ---- kernel ----------------------------------------------------------------- *)

let span_named prefix = { name = [ Text prefix; Agent ]; cat = "agent"; msg = []; attrs = [] }
let failed d = { d with attrs = [ ("error", Str 0) ] }
let activate = span_named "activate:"
let activate_failed = failed activate
let meet = span_named "meet:"
let meet_failed = failed meet

let fetch =
  make ~cat:"agent" "codecache.fetch" ~attrs:[ ("digest", Str 0); ("src", Int 0) ]

let fetch_done = make ~cat:"agent" "codecache.fetch"
let fetch_failed = failed fetch_done
let agent_log = make ~cat:"kernel" "agent.log" ~msg:[ Str 0 ]
let kernel_death = make ~cat:"kernel" "kernel.death" ~msg:[ Str 0 ] ~attrs:[ ("class", Str 1) ]

let horus_giveup =
  make ~cat:"kernel" "horus.giveup" ~attrs:[ ("dst", Int 0); ("attempts", Int 1) ]

(* from site name [Str 0] to site name [Str 1], [dst] and [bytes] *)
let kernel_migrate transport =
  make ~cat:"kernel" "kernel.migrate"
    ~msg:
      [
        Text ("rexec " ^ transport ^ ": "); Str 0; Text " -> "; Str 1; Text " contact="; Agent;
        Text " ("; Int 1; Text " bytes)";
      ]
    ~attrs:[ ("dst", Int 0); ("transport", Text transport); ("bytes", Int 1) ]

let migrate_rsh = kernel_migrate "rsh"
let migrate_tcp = kernel_migrate "tcp"
let migrate_horus = kernel_migrate "horus"

(* ---- guard, horus, chaos ---------------------------------------------------- *)

let guard_relaunch =
  make ~cat:"guard" "guard.relaunch"
    ~attrs:[ ("journey", Str 0); ("hop", Int 0); ("attempt", Int 1) ]

let horus_view =
  make ~cat:"horus" "horus.view" ~attrs:[ ("group", Str 0); ("suspects", Str 1); ("view", Int 0) ]

let chaos_crash = make ~cat:"chaos" "chaos.crash" ~attrs:[ ("site", Int 0); ("downtime", Float 0) ]
let chaos_cut = make ~cat:"chaos" "chaos.cut" ~attrs:[ ("label", Str 0); ("links", Int 0) ]
let chaos_loss = make ~cat:"chaos" "chaos.loss" ~attrs:[ ("rate", Float 0) ]
let chaos_link_loss = make ~cat:"chaos" "chaos.loss" ~attrs:[ ("rate", Float 0); ("link", Pair (0, 1)) ]

let chaos_degrade =
  make ~cat:"chaos" "chaos.degrade"
    ~attrs:[ ("link", Pair (0, 1)); ("latency", Float 0); ("bandwidth", Float 1) ]

let chaos_heal_crash = make ~cat:"chaos" "chaos.heal.crash"
let chaos_heal_cut = make ~cat:"chaos" "chaos.heal.cut"
let chaos_heal_loss = make ~cat:"chaos" "chaos.heal.loss"
let chaos_heal_degrade = make ~cat:"chaos" "chaos.heal.degrade"

(* ---- spans named by the caller ---------------------------------------------- *)

let named_span = { name = [ Str 0 ]; cat = "agent"; msg = []; attrs = [] }

let all =
  [
    net_send; net_deliver; net_drop_site_down; net_drop_partition; net_drop_no_route;
    net_drop_loss; net_crash; net_restart; activate; activate_failed; meet; meet_failed; fetch;
    fetch_done; fetch_failed; agent_log; kernel_death; horus_giveup; migrate_rsh; migrate_tcp;
    migrate_horus; guard_relaunch; horus_view; chaos_crash; chaos_cut; chaos_loss;
    chaos_link_loss; chaos_degrade; chaos_heal_crash; chaos_heal_cut; chaos_heal_loss;
    chaos_heal_degrade; named_span;
  ]
