module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Cabinet = Tacoma_core.Cabinet
module Net = Netsim.Net

type prediction = { p_station : int; p_hour : int; severity : float }

(* --- expert system ---------------------------------------------------------- *)

let anomalous (r : Weather.reading) = r.pressure_hpa < 998.0 || r.wind_ms > 13.0

let predict readings =
  (* index by station and hour for the windowed rules *)
  let by_key = Hashtbl.create 64 in
  List.iter (fun (r : Weather.reading) -> Hashtbl.replace by_key (r.station, r.hour) r) readings;
  let anomalous_stations_at hour =
    Hashtbl.fold
      (fun (s, h) r acc -> if h = hour && anomalous r then s :: acc else acc)
      by_key []
  in
  Hashtbl.fold
    (fun (station, hour) (r : Weather.reading) acc ->
      let severity = ref 0.0 in
      (* deep pressure trough *)
      if r.pressure_hpa < 985.0 then severity := !severity +. 0.5
      else if r.pressure_hpa < 998.0 then severity := !severity +. 0.25;
      (* wind surge *)
      if r.wind_ms > 18.0 then severity := !severity +. 0.4
      else if r.wind_ms > 13.0 then severity := !severity +. 0.2;
      (* rapid pressure fall versus the previous hour at this station *)
      (match Hashtbl.find_opt by_key (station, hour - 1) with
      | Some (prev : Weather.reading) ->
        if r.pressure_hpa -. prev.pressure_hpa < -8.0 then severity := !severity +. 0.3
      | None -> ());
      (* corroboration by another station in the same hour *)
      if List.exists (fun s -> s <> station) (anomalous_stations_at hour) then
        severity := !severity +. 0.2;
      if !severity >= 0.6 then { p_station = station; p_hour = hour; severity = !severity } :: acc
      else acc)
    by_key []

let score field predictions ~hit_rate ~false_alarm_rate =
  let truth = field.Weather.storm_hours in
  let predicted = List.map (fun p -> (p.p_station, p.p_hour)) predictions in
  let hits = List.filter (fun k -> List.mem k truth) predicted in
  hit_rate :=
    (if truth = [] then 1.0
     else float_of_int (List.length (List.sort_uniq compare hits))
          /. float_of_int (List.length (List.sort_uniq compare truth)));
  false_alarm_rate :=
    (if predicted = [] then 0.0
     else
       float_of_int (List.length predicted - List.length hits)
       /. float_of_int (List.length predicted))

(* --- deployments -------------------------------------------------------------- *)

type outcome = {
  predictions : prediction list;
  bytes_moved : int;
  finished_at : float;
  readings_moved : int;
}

let readings_folder = "READINGS"

let load_sensor_data kernel ~sites field =
  List.iteri
    (fun station site ->
      let cab = Kernel.cabinet kernel site in
      Cabinet.replace cab readings_folder
        (Array.to_list (Array.map Weather.wire field.Weather.readings.(station))))
    sites

let parse_readings elems =
  List.filter_map (fun w -> Result.to_option (Weather.of_wire w)) elems

let register_centre kernel ~start_bytes ~on_done =
  Kernel.register_native kernel "stormcast-centre" (fun ctx bc ->
      let findings = parse_readings (Folder.to_list (Briefcase.folder bc "FINDINGS")) in
      let predictions = predict findings in
      let k = ctx.Kernel.kernel in
      on_done
        {
          predictions;
          bytes_moved =
            Netsim.Netstats.bytes_sent (Net.stats (Kernel.net k)) - start_bytes;
          finished_at = Kernel.now k;
          readings_moved = List.length findings;
        })

let run_agent_collector kernel ~sensor_sites ~centre ~on_done =
  let net = Kernel.net kernel in
  let start_bytes = Netsim.Netstats.bytes_sent (Net.stats net) in
  let centre_host = Kernel.site_name kernel centre in

  register_centre kernel ~start_bytes ~on_done;

  Kernel.register_native kernel "stormcast-collector" (fun ctx bc ->
      let cab = Kernel.cabinet ctx.Kernel.kernel ctx.Kernel.site in
      (* filter at the data: only anomalous readings enter the briefcase *)
      let local = parse_readings (Cabinet.elements cab readings_folder) in
      let findings = Briefcase.folder bc "FINDINGS" in
      List.iter
        (fun r -> if anomalous r then Folder.enqueue findings (Weather.wire r))
        local;
      let itinerary = Briefcase.folder bc "ITINERARY" in
      let next, contact =
        match Folder.pop itinerary with
        | Some site_name -> (site_name, "stormcast-collector")
        | None -> (centre_host, "stormcast-centre")
      in
      Briefcase.set bc Briefcase.host_folder next;
      Briefcase.set bc Briefcase.contact_folder contact;
      Kernel.meet ctx "rexec" bc);

  match sensor_sites with
  | [] -> invalid_arg "Stormcast.run_agent_collector: no sensor sites"
  | first :: rest ->
    let bc = Briefcase.create () in
    Folder.replace (Briefcase.folder bc "ITINERARY")
      (List.map (Kernel.site_name kernel) rest);
    Kernel.launch kernel ~site:first ~contact:"stormcast-collector" bc

(* The same collector as a TScript agent: the anomaly rule from [anomalous]
   transcribed into the agent language, the itinerary carried in a folder,
   and the source re-shipped with [selfcode] at every hop. *)
let collector_script = {|
  foreach r [cabinet list READINGS] {
    lassign [split $r ,] st hr temp pres wind
    if {$pres < 998.0 || $wind > 13.0} { folder put FINDINGS $r }
  }
  if {[folder size ITINERARY] > 0} {
    set next [folder pop ITINERARY]
    folder set CODE [selfcode]
    jump $next
  } else {
    folder clear CODE
    folder set HOST [folder peek CENTRE]
    folder set CONTACT stormcast-centre
    meet rexec
  }
|}

let run_script_collector kernel ~sensor_sites ~centre ~on_done =
  let net = Kernel.net kernel in
  let start_bytes = Netsim.Netstats.bytes_sent (Net.stats net) in
  register_centre kernel ~start_bytes ~on_done;
  match sensor_sites with
  | [] -> invalid_arg "Stormcast.run_script_collector: no sensor sites"
  | first :: rest ->
    let bc = Briefcase.create () in
    Briefcase.set bc Briefcase.code_folder collector_script;
    Briefcase.set bc "CENTRE" (Kernel.site_name kernel centre);
    Folder.replace (Briefcase.folder bc "ITINERARY")
      (List.map (Kernel.site_name kernel) rest);
    Kernel.launch kernel ~site:first ~contact:"ag_script" bc

(* --- resident monitor agents (push) ------------------------------------------ *)

type push_outcome = {
  alerts : int;
  mean_alert_latency : float;
  push_bytes : int;
  push_predictions : prediction list;
}

let run_monitor_agents kernel ~field ~sensor_sites ~centre ~hour_scale () =
  let net = Kernel.net kernel in
  let start_bytes = Netsim.Netstats.bytes_sent (Net.stats net) in
  let received = ref [] (* (reading, latency) *) in
  Kernel.register_native kernel ~site:centre "stormcast-alert-sink" (fun ctx bc ->
      let k = ctx.Kernel.kernel in
      match
        ( Option.bind (Briefcase.find_opt bc "READING") (fun w -> Result.to_option (Weather.of_wire w)),
          Option.bind (Briefcase.find_opt bc "PRODUCED-AT") float_of_string_opt )
      with
      | Some r, Some produced_at ->
        received := (r, Kernel.now k -. produced_at) :: !received
      | _ -> ());
  let centre_name = Kernel.site_name kernel centre in
  List.iteri
    (fun station site ->
      let readings = field.Weather.readings.(station) in
      let monitor_name = Printf.sprintf "stormcast-monitor-%d" station in
      Kernel.register_native kernel ~site monitor_name (fun ctx _ ->
          let k = ctx.Kernel.kernel in
          Array.iter
            (fun (r : Weather.reading) ->
              (* wait for this hour's reading to be produced *)
              Kernel.sleep ctx hour_scale;
              if anomalous r then begin
                let out = Briefcase.create () in
                Briefcase.set out "READING" (Weather.wire r);
                Briefcase.set out "PRODUCED-AT" (Printf.sprintf "%.6f" (Kernel.now k));
                ignore centre_name;
                Kernel.send_briefcase k ~src:ctx.Kernel.site ~dst:centre
                  ~contact:"stormcast-alert-sink" out
              end)
            readings);
      Kernel.launch kernel ~site ~contact:monitor_name (Briefcase.create ()))
    sensor_sites;
  (* the caller drives the network, then collects the outcome *)
  fun () ->
    let readings = List.map fst !received in
    {
      alerts = List.length !received;
      mean_alert_latency =
        (match !received with
        | [] -> 0.0
        | rs ->
          List.fold_left (fun acc (_, l) -> acc +. l) 0.0 rs /. float_of_int (List.length rs));
      push_bytes = Netsim.Netstats.bytes_sent (Net.stats net) - start_bytes;
      push_predictions = predict readings;
    }

let run_client_server net ~field ~sensor_sites ~centre ~on_done =
  let start_bytes = Netsim.Netstats.bytes_sent (Net.stats net) in
  List.iteri
    (fun station site ->
      Baseline.Rpc.serve net ~site ~service:"stormcast" (fun ~query:_ ->
          Array.to_list (Array.map Weather.wire field.Weather.readings.(station))))
    sensor_sites;
  let collected = ref [] in
  let remaining = ref (List.length sensor_sites) in
  let finish () =
    let readings = parse_readings !collected in
    (* the centre filters locally, then predicts — same rules, same data *)
    let predictions = predict (List.filter anomalous readings) in
    on_done
      {
        predictions;
        bytes_moved = Netsim.Netstats.bytes_sent (Net.stats net) - start_bytes;
        finished_at = Net.now net;
        readings_moved = List.length readings;
      }
  in
  let rpc = Baseline.Rpc.client net ~src:centre in
  List.iter
    (fun site ->
      Baseline.Rpc.call rpc ~dst:site ~service:"stormcast" ~query:"all"
        ~on_reply:(fun rows ->
          collected := rows @ !collected;
          decr remaining;
          if !remaining = 0 then finish ()))
    sensor_sites
