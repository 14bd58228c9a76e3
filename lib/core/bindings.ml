module Interp = Tscript.Interp
module Value = Tscript.Value
module Decimal = Tacoma_util.Decimal

type host = {
  site_name : unit -> string;
  self : unit -> string;
  now : unit -> float;
  neighbors : unit -> string list;
  meet : string -> unit;
  sleep : float -> unit;
  log : string -> unit;
  random_int : int -> int;
  cabinet : Cabinet.t;
  code : unit -> string;
  dispatch : host:string -> contact:string -> unit;
}

(* host commands return [Text] or, for a list, [Items] *)
let none = Interp.Text ""

let err fmt = Printf.ksprintf (fun m -> raise (Interp.Error_exc m)) fmt

let float_arg what s =
  match Value.float_of s with
  | Some f -> f
  | None -> err "expected number for %s, got %S" what s

let int_arg what s =
  match Value.int_of s with
  | Some i -> i
  | None -> err "expected integer for %s, got %S" what s

let install_folder_cmd bc it =
  Interp.register it "folder" (fun _ args ->
      match args with
      | [ "put"; name; v ] ->
        Folder.enqueue (Briefcase.folder bc name) v;
        none
      | [ "push"; name; v ] ->
        Folder.push (Briefcase.folder bc name) v;
        none
      | [ "pop"; name ] -> (
        match Folder.pop (Briefcase.folder bc name) with
        | Some v -> Text v
        | None -> err "folder pop: %S is empty" name)
      | [ "trypop"; name ] ->
        Text (Option.value ~default:"" (Folder.pop (Briefcase.folder bc name)))
      | [ "peek"; name ] ->
        Text (Option.value ~default:"" (Folder.peek (Briefcase.folder bc name)))
      | [ "list"; name ] -> Items (Folder.to_list (Briefcase.folder bc name))
      | "set" :: name :: elems ->
        Folder.replace (Briefcase.folder bc name) elems;
        none
      | [ "setlist"; name; l ] ->
        (match Value.to_list l with
        | Ok elems -> Folder.replace (Briefcase.folder bc name) elems
        | Error msg -> err "%s" msg);
        none
      | [ "size"; name ] -> Text (Decimal.of_int (Folder.length (Briefcase.folder bc name)))
      | [ "exists"; name ] -> Text (Value.of_bool (Briefcase.mem bc name))
      | [ "clear"; name ] ->
        Folder.clear (Briefcase.folder bc name);
        none
      | [ "remove"; name ] ->
        Briefcase.remove bc name;
        none
      | [ "contains"; name; v ] ->
        Text (Value.of_bool (Folder.contains (Briefcase.folder bc name) v))
      | [ "names" ] -> Items (Briefcase.names bc)
      | _ -> err "folder: unknown subcommand or wrong # args")

let install_cabinet_cmd host it =
  let cab = host.cabinet in
  Interp.register it "cabinet" (fun _ args ->
      match args with
      | [ "put"; name; v ] ->
        Cabinet.put cab name v;
        none
      | [ "push"; name; v ] ->
        Cabinet.push cab name v;
        none
      | [ "pop"; name ] -> (
        match Cabinet.pop cab name with
        | Some v -> Text v
        | None -> err "cabinet pop: %S is empty" name)
      | [ "trypop"; name ] -> Text (Option.value ~default:"" (Cabinet.pop cab name))
      | [ "peek"; name ] -> Text (Option.value ~default:"" (Cabinet.peek cab name))
      | [ "list"; name ] -> Items (Cabinet.elements cab name)
      | "set" :: name :: elems ->
        Cabinet.replace cab name elems;
        none
      | [ "size"; name ] -> Text (Decimal.of_int (Cabinet.size cab name))
      | [ "exists"; name ] -> Text (Value.of_bool (Cabinet.folder_exists cab name))
      | [ "clear"; name ] ->
        Cabinet.replace cab name [];
        none
      | [ "contains"; name; v ] -> Text (Value.of_bool (Cabinet.contains cab name v))
      | [ "remove"; name; v ] ->
        Cabinet.remove_element cab name v;
        none
      | [ "names" ] -> Items (Cabinet.folder_names cab)
      | [ "kvset"; name; k; v ] ->
        Cabinet.set_kv cab name ~key:k v;
        none
      | [ "kvget"; name; k ] ->
        Text (Option.value ~default:"" (Cabinet.find_kv_opt cab name ~key:k))
      | [ "flush" ] ->
        Cabinet.flush cab;
        none
      | [ "flush"; name ] ->
        Cabinet.flush_folder cab name;
        none
      | _ -> err "cabinet: unknown subcommand or wrong # args")

let install host bc it =
  install_folder_cmd bc it;
  install_cabinet_cmd host it;

  Interp.register it "meet" (fun _ args ->
      match args with
      | [ agent ] ->
        host.meet agent;
        none
      | _ -> err "wrong # args: should be \"meet agent\"");

  Interp.register it "jump" (fun _ args ->
      match args with
      | [ site ] | [ site; _ ] ->
        let contact = match args with [ _; c ] -> c | _ -> "ag_script" in
        Briefcase.set bc Briefcase.host_folder site;
        Briefcase.set bc Briefcase.contact_folder contact;
        host.meet "rexec";
        none
      | _ -> err "wrong # args: should be \"jump site ?contact?\"");

  Interp.register it "selfcode" (fun _ _ -> Text (host.code ()));

  Interp.register it "dispatch" (fun _ args ->
      match args with
      | [ site; contact ] ->
        host.dispatch ~host:site ~contact;
        none
      | _ -> err "wrong # args: should be \"dispatch site agent\"");

  Interp.register it "host" (fun _ _ -> Text (host.site_name ()));
  Interp.register it "self" (fun _ _ -> Text (host.self ()));
  Interp.register it "now" (fun _ _ -> Text (Value.of_float (host.now ())));
  Interp.register it "neighbors" (fun _ _ -> Items (host.neighbors ()));

  Interp.register it "work" (fun _ args ->
      match args with
      | [ d ] ->
        host.sleep (float_arg "duration" d);
        none
      | _ -> err "wrong # args: should be \"work seconds\"");

  Interp.register it "log" (fun _ args ->
      host.log (String.concat " " args);
      none);

  Interp.register it "random" (fun _ args ->
      match args with
      | [ n ] ->
        let n = int_arg "bound" n in
        if n <= 0 then err "random: bound must be positive";
        Text (Decimal.of_int (host.random_int n))
      | _ -> err "wrong # args: should be \"random bound\"")
