(* The folders in strictly increasing name order: the wire order, so
   [serialize] walks the list once and [deserialize] appends as it reads.
   Briefcases hold a handful of folders, so a sorted list beats hashing. *)
type t = { mutable folders : (string * Folder.t) list }

let host_folder = "HOST"
let contact_folder = "CONTACT"
let code_folder = "CODE"
let code_ref_folder = "CODE-REF"
let sites_folder = "SITES"
let trace_folder = "TRACE"

let create () = { folders = [] }

let rec lookup name = function
  | [] -> None
  | (n, f) :: rest ->
    let c = String.compare n name in
    if c = 0 then Some f else if c > 0 then None else lookup name rest

let rec insert name f = function
  | ((n, _) as e) :: rest when String.compare n name < 0 -> e :: insert name f rest
  | l -> (name, f) :: l

let rec delete name = function
  | [] -> []
  | ((n, _) as e) :: rest as l ->
    let c = String.compare n name in
    if c = 0 then rest else if c > 0 then l else e :: delete name rest

let folder_opt t name = lookup name t.folders

let folder t name =
  match lookup name t.folders with
  | Some f -> f
  | None ->
    let f = Folder.create () in
    t.folders <- insert name f t.folders;
    f

let mem t name = Option.is_some (lookup name t.folders)
let remove t name = if mem t name then t.folders <- delete name t.folders
let names t = List.map fst t.folders
let copy t = { folders = List.map (fun (name, f) -> (name, Folder.copy f)) t.folders }
let clear t = t.folders <- []

let set t name v = Folder.replace (folder t name) [ v ]
let find_opt t name = Option.bind (folder_opt t name) Folder.peek

let get t name =
  match find_opt t name with Some v -> v | None -> raise Not_found

(* Wire format: 4-byte folder count, then per folder (in name order) the
   encoded name, a 4-byte element count and the encoded elements. *)
let folder_size acc (name, f) =
  acc + Codec.encoded_size name + 4 + (4 * Folder.length f) + Folder.byte_size f

let byte_size t = List.fold_left folder_size 4 t.folders

let rec put_folders buf pos = function
  | [] -> pos
  | (name, f) :: rest ->
    let pos = Codec.put_string buf pos name in
    put_folders buf (Codec.put_strings buf pos (Folder.to_list f)) rest

let serialize t =
  let buf = Bytes.create (byte_size t) in
  let pos = Codec.put_u32 buf 0 (List.length t.folders) in
  ignore (put_folders buf pos t.folders);
  Bytes.unsafe_to_string buf

(* The wire is canonical: names strictly increase (no duplicates) and
   nothing follows the last folder, so every accepted wire is exactly what
   [serialize] makes of the result.  Not tail-recursive: every folder
   consumes at least 8 input bytes, so the depth is bounded by the input. *)
let rec read_folders r ~prev k =
  if k = 0 then []
  else begin
    let name = Codec.read_string r in
    (match prev with
    | Some p when String.compare p name >= 0 ->
      raise (Codec.Malformed "folder names out of order")
    | Some _ | None -> ());
    let f = Folder.of_list (Codec.read_strings r) in
    (name, f) :: read_folders r ~prev:(Some name) (k - 1)
  end

let deserialize s =
  let r = Codec.reader s in
  let folders = read_folders r ~prev:None (Codec.read_u32 r) in
  if not (Codec.at_end r) then raise (Codec.Malformed "trailing bytes");
  { folders }

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, f) ->
      Format.fprintf fmt "%s: [%s]@," name
        (String.concat "; " (List.map (Printf.sprintf "%S") (Folder.to_list f))))
    t.folders;
  Format.fprintf fmt "@]"
