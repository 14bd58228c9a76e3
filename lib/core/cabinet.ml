(* Each folder keeps its elements in order plus a multiset index for O(1)
   membership — the "optimize access times" trade of the paper. *)
type cfolder = {
  mutable elems : string list; (* head first *)
  index : (string, int) Hashtbl.t; (* element -> multiplicity *)
}

type t = {
  folders : (string, cfolder) Hashtbl.t;
  mutable disk : (string * string list) list; (* checkpoint image *)
}

let create () = { folders = Hashtbl.create 16; disk = [] }

let cfolder t name =
  match Hashtbl.find_opt t.folders name with
  | Some f -> f
  | None ->
    let f = { elems = []; index = Hashtbl.create 8 } in
    Hashtbl.replace t.folders name f;
    f

let index_add f e =
  Hashtbl.replace f.index e (1 + Option.value ~default:0 (Hashtbl.find_opt f.index e))

let index_remove f e =
  match Hashtbl.find_opt f.index e with
  | None -> ()
  | Some 1 -> Hashtbl.remove f.index e
  | Some n -> Hashtbl.replace f.index e (n - 1)

let put t name e =
  let f = cfolder t name in
  f.elems <- f.elems @ [ e ];
  index_add f e

let push t name e =
  let f = cfolder t name in
  f.elems <- e :: f.elems;
  index_add f e

let pop t name =
  match Hashtbl.find_opt t.folders name with
  | None -> None
  | Some f -> (
    match f.elems with
    | [] -> None
    | e :: rest ->
      f.elems <- rest;
      index_remove f e;
      Some e)

let peek t name =
  match Hashtbl.find_opt t.folders name with
  | None -> None
  | Some f -> ( match f.elems with [] -> None | e :: _ -> Some e)

let find_opt = peek

let get t name =
  match peek t name with Some v -> v | None -> raise Not_found

let elements t name =
  match Hashtbl.find_opt t.folders name with None -> [] | Some f -> f.elems

let replace t name elems =
  let f = cfolder t name in
  f.elems <- elems;
  Hashtbl.reset f.index;
  List.iter (index_add f) elems

let folder_names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.folders [])

let folder_exists t name = Hashtbl.mem t.folders name
let size t name = List.length (elements t name)

let contains t name e =
  match Hashtbl.find_opt t.folders name with
  | None -> false
  | Some f -> Hashtbl.mem f.index e

let remove_element t name e =
  match Hashtbl.find_opt t.folders name with
  | None -> ()
  | Some f ->
    f.elems <- List.filter (fun x -> x <> e) f.elems;
    Hashtbl.remove f.index e

(* key=value records *)

let kv_split e =
  match String.index_opt e '=' with
  | None -> None
  | Some i -> Some (String.sub e 0 i, String.sub e (i + 1) (String.length e - i - 1))

let set_kv t name ~key v =
  let f = cfolder t name in
  let keep e = match kv_split e with Some (k, _) -> k <> key | None -> true in
  let removed = List.filter (fun e -> not (keep e)) f.elems in
  List.iter (index_remove f) removed;
  f.elems <- List.filter keep f.elems @ [ key ^ "=" ^ v ];
  index_add f (key ^ "=" ^ v)

let remove_kv t name ~key =
  match Hashtbl.find_opt t.folders name with
  | None -> ()
  | Some f ->
    let keep e = match kv_split e with Some (k, _) -> k <> key | None -> true in
    let removed = List.filter (fun e -> not (keep e)) f.elems in
    List.iter (index_remove f) removed;
    f.elems <- List.filter keep f.elems

let find_kv_opt t name ~key =
  let rec find = function
    | [] -> None
    | e :: rest -> (
      match kv_split e with Some (k, v) when k = key -> Some v | _ -> find rest)
  in
  find (elements t name)

let kv_bindings t name = List.filter_map kv_split (elements t name)

(* persistence *)

let flush t =
  t.disk <- Hashtbl.fold (fun name f acc -> (name, f.elems) :: acc) t.folders []

let flush_folder t name =
  let others = List.filter (fun (n, _) -> n <> name) t.disk in
  t.disk <- (name, elements t name) :: others

let recover t =
  let fresh = create () in
  List.iter (fun (name, elems) -> replace fresh name elems) t.disk;
  fresh.disk <- t.disk;
  fresh

let byte_size t =
  Hashtbl.fold
    (fun name f acc ->
      acc + String.length name + List.fold_left (fun a e -> a + String.length e) 0 f.elems)
    t.folders 0
