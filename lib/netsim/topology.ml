type link = { latency : float; bandwidth : float }

type index = {
  nbr : int array array;
  nbr_link : int array array;
  params : link array;
  lo : int array;
  hi : int array;
}

type t = {
  mutable names : string list; (* reversed *)
  mutable count : int;
  mutable name_arr : string array option; (* cache, invalidated on add *)
  links : (int * int, link) Hashtbl.t; (* key has src < dst *)
  adj : (int, int list) Hashtbl.t;
  mutable index : index option; (* set by [freeze]; no more sites or links after *)
}

let create () =
  {
    names = [];
    count = 0;
    name_arr = None;
    links = Hashtbl.create 64;
    adj = Hashtbl.create 64;
    index = None;
  }

let check_open t what =
  if Option.is_some t.index then invalid_arg (what ^ ": topology is frozen")

let add_site t ~name =
  check_open t "Topology.add_site";
  let id = t.count in
  t.names <- name :: t.names;
  t.count <- t.count + 1;
  t.name_arr <- None;
  id

let key a b = if a < b then (a, b) else (b, a)

let add_link t a b ~latency ~bandwidth =
  check_open t "Topology.add_link";
  if a = b then invalid_arg "Topology.add_link: self loop";
  if a < 0 || a >= t.count || b < 0 || b >= t.count then
    invalid_arg "Topology.add_link: unknown site";
  let fresh = not (Hashtbl.mem t.links (key a b)) in
  Hashtbl.replace t.links (key a b) { latency; bandwidth };
  if fresh then begin
    let push x y =
      let cur = Option.value ~default:[] (Hashtbl.find_opt t.adj x) in
      Hashtbl.replace t.adj x (y :: cur)
    in
    push a b;
    push b a
  end

let site_count t = t.count

let names_array t =
  match t.name_arr with
  | Some arr -> arr
  | None ->
    let arr = Array.of_list (List.rev t.names) in
    t.name_arr <- Some arr;
    arr

let site_name t id =
  let arr = names_array t in
  if id < 0 || id >= Array.length arr then invalid_arg "Topology.site_name";
  arr.(id)

let sites t = List.init t.count Fun.id
let neighbors t id = Option.value ~default:[] (Hashtbl.find_opt t.adj id)
let link t a b = Hashtbl.find_opt t.links (key a b)

let iter_links t f = Hashtbl.iter (fun (a, b) l -> f a b l) t.links

(* Links are numbered in site order, each from its lower end; a site's
   neighbours keep their [neighbors] order, which route tie-breaking
   depends on. *)
let build_index t =
  let n = t.count in
  let nbr = Array.init n (fun a -> Array.of_list (neighbors t a)) in
  let nbr_link = Array.map (fun vs -> Array.make (Array.length vs) (-1)) nbr in
  let m = Hashtbl.length t.links in
  let params = Array.make m { latency = 0.0; bandwidth = 0.0 } in
  let lo = Array.make m 0 and hi = Array.make m 0 in
  let next = ref 0 in
  for a = 0 to n - 1 do
    Array.iteri
      (fun i b ->
        if a < b then begin
          let id = !next in
          incr next;
          params.(id) <- Hashtbl.find t.links (a, b);
          lo.(id) <- a;
          hi.(id) <- b;
          nbr_link.(a).(i) <- id;
          let back = nbr.(b) in
          let j = ref 0 in
          while back.(!j) <> a do
            incr j
          done;
          nbr_link.(b).(!j) <- id
        end)
      nbr.(a)
  done;
  { nbr; nbr_link; params; lo; hi }

let freeze t =
  match t.index with
  | Some ix -> ix
  | None ->
    let ix = build_index t in
    t.index <- Some ix;
    ix

let link_id ix a b =
  if a < 0 || a >= Array.length ix.nbr then -1
  else begin
    let vs = ix.nbr.(a) in
    let rec find i =
      if i = Array.length vs then -1 else if vs.(i) = b then ix.nbr_link.(a).(i) else find (i + 1)
    in
    find 0
  end

(* every link a generator makes: 5 ms, 1 MB/s *)
let latency = 0.005
let bandwidth = 1_000_000.0

let mk n name_of =
  let t = create () in
  for i = 0 to n - 1 do
    ignore (add_site t ~name:(name_of i))
  done;
  (t, fun a b -> add_link t a b ~latency ~bandwidth)

let ring n =
  if n < 1 then invalid_arg "Topology.ring";
  let t, connect = mk n (Printf.sprintf "ring-%d") in
  if n > 1 then
    for i = 0 to n - 1 do
      let j = (i + 1) mod n in
      if j <> i && not (Option.is_some (link t i j)) then connect i j
    done;
  t

let star n =
  if n < 0 then invalid_arg "Topology.star";
  let t, connect = mk (n + 1) (fun i -> if i = 0 then "hub" else Printf.sprintf "spoke-%d" i) in
  for i = 1 to n do
    connect 0 i
  done;
  t

let full_mesh n =
  if n < 1 then invalid_arg "Topology.full_mesh";
  let t, connect = mk n (Printf.sprintf "mesh-%d") in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      connect i j
    done
  done;
  t

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Topology.grid";
  let t, connect =
    mk (rows * cols) (fun i -> Printf.sprintf "grid-%d-%d" (i / cols) (i mod cols))
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let i = (r * cols) + c in
      if c + 1 < cols then connect i (i + 1);
      if r + 1 < rows then connect i (i + cols)
    done
  done;
  t

let line n =
  if n < 1 then invalid_arg "Topology.line";
  let t, connect = mk n (Printf.sprintf "line-%d") in
  for i = 0 to n - 2 do
    connect i (i + 1)
  done;
  t

(* 1995's links between and within Tromsø and Cornell *)
let lan_latency = 0.001
let lan_bandwidth = 10_000_000.0
let wan_latency = 0.1
let wan_bandwidth = 64_000.0

let wan_pair ~cluster () =
  if cluster < 1 then invalid_arg "Topology.wan_pair";
  let t = create () in
  for i = 0 to (2 * cluster) - 1 do
    let side = if i < cluster then "tromso" else "cornell" in
    ignore (add_site t ~name:(Printf.sprintf "%s-%d" side (i mod cluster)))
  done;
  let mesh offset =
    for i = 0 to cluster - 1 do
      for j = i + 1 to cluster - 1 do
        add_link t (offset + i) (offset + j) ~latency:lan_latency ~bandwidth:lan_bandwidth
      done
    done
  in
  mesh 0;
  mesh cluster;
  if cluster >= 1 && site_count t >= 2 then
    add_link t 0 cluster ~latency:wan_latency ~bandwidth:wan_bandwidth;
  t

let random ~rng ~n ~p () =
  if n < 1 then invalid_arg "Topology.random";
  let t, connect = mk n (Printf.sprintf "rand-%d") in
  (* spanning ring first, so the graph is connected regardless of p *)
  if n > 1 then
    for i = 0 to n - 1 do
      let j = (i + 1) mod n in
      if j <> i && not (Option.is_some (link t i j)) then connect i j
    done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if (not (Option.is_some (link t i j))) && Tacoma_util.Rng.float rng < p then connect i j
    done
  done;
  t
