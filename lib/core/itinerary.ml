module Net = Netsim.Net

(* idle-network latency between two sites right now; None when unreachable *)
let hop_cost kernel a b = Net.delivery_delay (Kernel.net kernel) a b ~size:0

let plan kernel ~from sites =
  let remaining = ref (List.sort_uniq compare (List.filter (fun s -> s <> from) sites)) in
  let tour = ref [] in
  let here = ref from in
  let unreachable = ref [] in
  while !remaining <> [] do
    let best =
      List.fold_left
        (fun acc s ->
          match hop_cost kernel !here s with
          | None -> acc
          | Some c -> (
            match acc with
            | Some (_, bc) when bc <= c -> acc
            | Some _ | None -> Some (s, c)))
        None !remaining
    in
    match best with
    | Some (s, _) ->
      tour := s :: !tour;
      here := s;
      remaining := List.filter (fun x -> x <> s) !remaining
    | None ->
      (* nothing reachable from here: park the rest, in order *)
      unreachable := !remaining;
      remaining := []
  done;
  List.rev !tour @ !unreachable

let round_trip kernel ~from sites = plan kernel ~from sites @ [ from ]

let tour_cost kernel ~from sites =
  let rec go acc here = function
    | [] -> acc
    | s :: rest -> (
      match hop_cost kernel here s with
      | Some c -> go (acc +. c) s rest
      | None -> infinity)
  in
  go 0.0 from sites

let to_folder kernel folder sites =
  Folder.replace folder (List.map (Kernel.site_name kernel) sites)

let of_folder kernel folder =
  List.filter_map (Kernel.site_named kernel) (Folder.to_list folder)
