module Decimal = Tacoma_util.Decimal
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Net = Netsim.Net

type route = { service : string; cost : int; via : string }

type entry = { mutable cost : int; mutable via : string; mutable refreshed : float }

type node = {
  broker : Matchmaker.t;
  mutable peers : node list;
  table : (string, entry) Hashtbl.t; (* remote services *)
}

type t = {
  kernel : Kernel.t;
  advert_period : float;
  max_cost : int;
  expiry : float;
  nodes : (string, node) Hashtbl.t; (* broker agent name -> node *)
  mutable query_counter : int;
}

let create kernel ?(advert_period = 1.0) ?(max_cost = 16) ?(expiry = 3.0) () =
  {
    kernel;
    advert_period;
    max_cost;
    expiry = expiry *. advert_period;
    nodes = Hashtbl.create 8;
    query_counter = 0;
  }

let route_agent_name broker = "route:" ^ Matchmaker.agent_name broker
let node_exn t name = Hashtbl.find t.nodes name

let routes t broker =
  match Hashtbl.find_opt t.nodes (Matchmaker.agent_name broker) with
  | None -> []
  | Some node ->
    Hashtbl.fold
      (fun service e acc -> { service; cost = e.cost; via = e.via } :: acc)
      node.table []
    |> List.sort compare

(* services this node can reach, with costs: local providers cost 0,
   remote ones their table cost (if still fresh) *)
let reachable t node =
  let now = Kernel.now t.kernel in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun service -> Hashtbl.replace acc service 0)
    (Matchmaker.services node.broker);
  Hashtbl.iter
    (fun service e ->
      if now -. e.refreshed <= t.expiry && e.cost < t.max_cost then
        match Hashtbl.find_opt acc service with
        | Some c when c <= e.cost -> ()
        | Some _ | None -> Hashtbl.replace acc service e.cost)
    node.table;
  Hashtbl.fold (fun s c acc -> (s, c) :: acc) acc []

let send_to_broker t ~src dst_broker ~contact bc =
  Kernel.send_briefcase t.kernel ~src ~dst:(Matchmaker.site dst_broker) ~contact bc

let advertise t node =
  let entries = reachable t node in
  let wire = List.map (fun (s, c) -> s ^ ":" ^ Decimal.of_int c) entries in
  let bc = Briefcase.create () in
  Briefcase.set bc "OP" "advert";
  Briefcase.set bc "FROM" (Matchmaker.agent_name node.broker);
  Folder.replace (Briefcase.folder bc "SERVICES") wire;
  List.iter
    (fun peer ->
      send_to_broker t ~src:(Matchmaker.site node.broker) peer.broker
        ~contact:(route_agent_name peer.broker) bc)
    node.peers

let handle_advert t node bc =
  let from = Option.value ~default:"?" (Briefcase.find_opt bc "FROM") in
  let now = Kernel.now t.kernel in
  Folder.iter
    (fun line ->
      match String.rindex_opt line ':' with
      | None -> ()
      | Some i -> (
        let service = String.sub line 0 i in
        match int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
        | None -> ()
        | Some cost ->
          let cost = cost + 1 in
          if cost <= t.max_cost then begin
            match Hashtbl.find_opt node.table service with
            | Some e ->
              (* adopt cheaper routes, refresh the current one, and accept
                 cost increases from our own next hop (route decay) *)
              if cost < e.cost || e.via = from then begin
                e.cost <- cost;
                e.via <- from;
                e.refreshed <- now
              end
            | None -> Hashtbl.replace node.table service { cost; via = from; refreshed = now }
          end))
    (Briefcase.folder bc "SERVICES")

let reply_error t ~src bc msg =
  match (Briefcase.find_opt bc "REPLY-HOST", Briefcase.find_opt bc "REPLY-AGENT") with
  | Some host, Some agent -> (
    match Kernel.site_named t.kernel host with
    | Some dst ->
      let out = Briefcase.create () in
      Briefcase.set out "QUERY" (Option.value ~default:"" (Briefcase.find_opt bc "QUERY"));
      Briefcase.set out "STATUS" msg;
      Kernel.send_briefcase t.kernel ~src ~dst ~contact:agent out
    | None -> ())
  | _ -> ()

let handle_query t node bc =
  let src = Matchmaker.site node.broker in
  match Briefcase.find_opt bc "SERVICE" with
  | None -> reply_error t ~src bc "malformed-query"
  | Some service -> (
    let hops =
      Option.value ~default:0 (Option.bind (Briefcase.find_opt bc "HOPS") int_of_string_opt)
    in
    match Matchmaker.lookup node.broker ~service () with
    | Some c -> (
      (* resolved here: answer the requester directly *)
      match (Briefcase.find_opt bc "REPLY-HOST", Briefcase.find_opt bc "REPLY-AGENT") with
      | Some host, Some agent -> (
        match Kernel.site_named t.kernel host with
        | Some dst ->
          let out = Briefcase.create () in
          Briefcase.set out "QUERY" (Option.value ~default:"" (Briefcase.find_opt bc "QUERY"));
          Briefcase.set out "STATUS" "ok";
          Briefcase.set out "PROVIDER" c.Policy.provider;
          Briefcase.set out "PROVIDER-HOST" c.Policy.host;
          Briefcase.set out "CAPACITY" (string_of_float c.Policy.capacity);
          Briefcase.set out "LOAD" (string_of_float c.Policy.load);
          Briefcase.set out "HOPS" (Decimal.of_int hops);
          Kernel.send_briefcase t.kernel ~src ~dst ~contact:agent out
        | None -> ())
      | _ -> ())
    | None -> (
      (* forward along the gradient *)
      if hops >= t.max_cost then reply_error t ~src bc "ttl-exhausted"
      else
        let now = Kernel.now t.kernel in
        match Hashtbl.find_opt node.table service with
        | Some e when now -. e.refreshed <= t.expiry -> (
          match Hashtbl.find_opt t.nodes e.via with
          | Some via_node ->
            Briefcase.set bc "HOPS" (Decimal.of_int (hops + 1));
            send_to_broker t ~src via_node.broker
              ~contact:(route_agent_name via_node.broker) bc
          | None -> reply_error t ~src bc "no-provider")
        | Some _ | None -> reply_error t ~src bc "no-provider"))

let rec advert_loop t node ctx =
  if Net.site_up (Kernel.net t.kernel) (Matchmaker.site node.broker) then begin
    advertise t node;
    Kernel.sleep ctx t.advert_period;
    advert_loop t node ctx
  end

let add_broker t broker =
  let name = Matchmaker.agent_name broker in
  if Hashtbl.mem t.nodes name then invalid_arg "Routing.add_broker: already registered";
  let node = { broker; peers = []; table = Hashtbl.create 16 } in
  Hashtbl.replace t.nodes name node;
  Kernel.register_native t.kernel ~site:(Matchmaker.site broker) (route_agent_name broker)
    (fun _ bc ->
      match Option.value ~default:"query" (Briefcase.find_opt bc "OP") with
      | "advert" -> handle_advert t node bc
      | "query" -> handle_query t node bc
      | other -> raise (Kernel.Agent_error ("route: unknown op " ^ other)));
  let loop_name = "route-loop:" ^ name in
  Kernel.register_native t.kernel ~site:(Matchmaker.site broker) loop_name (fun ctx _ ->
      advert_loop t node ctx);
  Kernel.launch ~daemon:true t.kernel ~site:(Matchmaker.site broker) ~contact:loop_name
    (Briefcase.create ())

let connect t a b =
  let na = node_exn t (Matchmaker.agent_name a) in
  let nb = node_exn t (Matchmaker.agent_name b) in
  if not (List.memq nb na.peers) then na.peers <- nb :: na.peers;
  if not (List.memq na nb.peers) then nb.peers <- na :: nb.peers

let routed_lookup t ~from ~service ~on_reply =
  t.query_counter <- t.query_counter + 1;
  let qid = "rq-" ^ Decimal.of_int t.query_counter in
  let src = Matchmaker.site from in
  let reply_agent = "route-reply:" ^ qid in
  let fired = ref false in
  Kernel.register_native t.kernel ~site:src reply_agent (fun _ bc ->
      if not !fired then begin
        fired := true;
        match Briefcase.find_opt bc "STATUS" with
        | Some "ok" ->
          let candidate =
            {
              Policy.provider = Option.value ~default:"?" (Briefcase.find_opt bc "PROVIDER");
              host = Option.value ~default:"?" (Briefcase.find_opt bc "PROVIDER-HOST");
              capacity =
                Option.value ~default:1.0
                  (Option.bind (Briefcase.find_opt bc "CAPACITY") float_of_string_opt);
              load =
                Option.value ~default:0.0
                  (Option.bind (Briefcase.find_opt bc "LOAD") float_of_string_opt);
              report_age = 0.0;
            }
          in
          let hops =
            Option.value ~default:0 (Option.bind (Briefcase.find_opt bc "HOPS") int_of_string_opt)
          in
          on_reply (Ok (candidate, hops))
        | Some err -> on_reply (Error err)
        | None -> on_reply (Error "malformed-reply")
      end);
  let bc = Briefcase.create () in
  Briefcase.set bc "OP" "query";
  Briefcase.set bc "QUERY" qid;
  Briefcase.set bc "SERVICE" service;
  Briefcase.set bc "HOPS" "0";
  Briefcase.set bc "REPLY-HOST" (Kernel.site_name t.kernel src);
  Briefcase.set bc "REPLY-AGENT" reply_agent;
  Kernel.send_briefcase t.kernel ~src ~dst:src ~contact:(route_agent_name from) bc
