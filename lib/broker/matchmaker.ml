module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase

type entry = {
  provider : string;
  service : string;
  host : string;
  capacity : float;
  mutable load : float;
  mutable reported_at : float;
}

type t = {
  kernel : Kernel.t;
  bsite : Netsim.Site.id;
  bname : string;
  default_policy : Policy.t;
  max_report_age : float option;
  entries : (string, entry) Hashtbl.t; (* provider name -> entry *)
  rng : Tacoma_util.Rng.t;
  rr_counter : int ref;
  reports_metric : Obs.Metrics.counter_handle;
}

let site t = t.bsite
let agent_name t = t.bname

(* A known provider's report refreshes only its load: [fixed arg] yields
   the service, host and capacity, and is called only for a new entry.
   Taking [fixed] and [arg] apart spares a report a closure. *)
let upsert t ~provider ~load fixed arg =
  let now = Kernel.now t.kernel in
  match Hashtbl.find t.entries provider with
  | e ->
    e.load <- load;
    e.reported_at <- now
  | exception Not_found ->
    let service, host, capacity = fixed arg in
    Hashtbl.replace t.entries provider
      { provider; service; host; capacity; load; reported_at = now }

let fresh t ~now e =
  match t.max_report_age with
  | None -> true
  | Some max_age -> now -. e.reported_at <= max_age

let candidates t ~service =
  let now = Kernel.now t.kernel in
  Hashtbl.fold
    (fun _ e acc ->
      if e.service = service && fresh t ~now e then
        {
          Policy.provider = e.provider;
          host = e.host;
          capacity = e.capacity;
          load = e.load;
          report_age = now -. e.reported_at;
        }
        :: acc
      else acc)
    t.entries []
  |> List.sort (fun a b -> compare a.Policy.provider b.Policy.provider)

let services t =
  let now = Kernel.now t.kernel in
  Hashtbl.fold (fun _ e acc -> if fresh t ~now e then e.service :: acc else acc) t.entries []
  |> List.sort_uniq compare

let lookup t ~service ?(exclude = []) ?policy () =
  let pol = Option.value ~default:t.default_policy policy in
  let cands =
    match exclude with
    | [] -> candidates t ~service
    | _ ->
      List.filter
        (fun c -> not (List.mem c.Policy.provider exclude))
        (candidates t ~service)
  in
  let choice = Policy.choose pol ~rng:t.rng ~rr_counter:t.rr_counter cands in
  let m = Kernel.metrics t.kernel in
  (match choice with
  | Some c ->
    Obs.Metrics.incr m ~labels:[ ("policy", Policy.name pol) ] "broker.decisions";
    (* how stale was the load report the decision was based on? *)
    Obs.Metrics.observe m "broker.report_staleness_s" c.Policy.report_age
  | None -> Obs.Metrics.incr m "broker.no_provider");
  choice

let malformed_report () = raise (Kernel.Agent_error "broker: report needs PROVIDER/SERVICE/HOST")

(* the fixed fields of a new provider's first report *)
let report_fixed bc =
  match (Briefcase.find_opt bc "SERVICE", Briefcase.find_opt bc "HOST") with
  | Some service, Some host ->
    let capacity =
      Option.value ~default:1.0 (Option.bind (Briefcase.find_opt bc "CAPACITY") float_of_string_opt)
    in
    (service, host, capacity)
  | _ -> malformed_report ()

let handle t bc =
  match Option.value ~default:"lookup" (Briefcase.find_opt bc "OP") with
  | "register" | "report" -> (
    Obs.Metrics.bump t.reports_metric 1;
    match Briefcase.find_opt bc "PROVIDER" with
    | None -> malformed_report ()
    | Some provider ->
      let load =
        Option.value ~default:0.0 (Option.bind (Briefcase.find_opt bc "LOAD") float_of_string_opt)
      in
      upsert t ~provider ~load report_fixed bc)
  | "lookup" -> (
    match Briefcase.find_opt bc "SERVICE" with
    | None -> raise (Kernel.Agent_error "broker: lookup needs SERVICE")
    | Some service ->
      let policy = Option.bind (Briefcase.find_opt bc "POLICY") Policy.of_string in
      let exclude =
        match Briefcase.find_opt bc "EXCLUDE" with
        | None | Some "" -> []
        | Some s -> String.split_on_char ',' s
      in
      (match lookup t ~service ~exclude ?policy () with
      | Some c ->
        Briefcase.set bc "PROVIDER" c.Policy.provider;
        Briefcase.set bc "PROVIDER-HOST" c.Policy.host;
        Briefcase.set bc "STATUS" "ok"
      | None -> Briefcase.set bc "STATUS" "no-provider");
      (* remote clients cannot see the in-place mutation a meet relies on:
         when the lookup names a reply agent, ship the answer back *)
      (match (Briefcase.find_opt bc "REPLY-HOST", Briefcase.find_opt bc "REPLY-AGENT") with
      | Some host, Some agent -> (
        match Kernel.site_named t.kernel host with
        | None -> ()
        | Some dst ->
          Kernel.send_briefcase t.kernel ~src:t.bsite ~dst ~contact:agent bc)
      | _ -> ()))
  | op -> raise (Kernel.Agent_error (Printf.sprintf "broker: unknown op %S" op))

let install kernel ~site ~name ?(policy = Policy.Least_loaded) ?max_report_age () =
  let t =
    {
      kernel;
      bsite = site;
      bname = name;
      default_policy = policy;
      max_report_age;
      entries = Hashtbl.create 16;
      rng = Tacoma_util.Rng.split (Kernel.rng kernel);
      rr_counter = ref 0;
      reports_metric = Obs.Metrics.counter_handle (Kernel.metrics kernel) "broker.reports";
    }
  in
  Kernel.register_native kernel ~site name (fun _ bc -> handle t bc);
  t

let register_provider t p =
  upsert t ~provider:(Provider.name p)
    ~load:(float_of_int (Provider.queue_length p))
    (fun p -> (Provider.service p, Kernel.site_name t.kernel (Provider.site p), Provider.capacity p))
    p
