module Interp = Tscript.Interp
module Value = Tscript.Value

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
        ""
      | [ "push"; name; v ] ->
        Folder.push (Briefcase.folder bc name) v;
        ""
      | [ "pop"; name ] -> (
        match Folder.pop (Briefcase.folder bc name) with
        | Some v -> v
        | None -> err "folder pop: %S is empty" name)
      | [ "trypop"; name ] ->
        Option.value ~default:"" (Folder.pop (Briefcase.folder bc name))
      | [ "peek"; name ] ->
        Option.value ~default:"" (Folder.peek (Briefcase.folder bc name))
      | [ "list"; name ] -> Value.of_list (Folder.to_list (Briefcase.folder bc name))
      | "set" :: name :: elems ->
        Folder.replace (Briefcase.folder bc name) elems;
        ""
      | [ "setlist"; name; l ] ->
        (match Value.to_list l with
        | Ok elems -> Folder.replace (Briefcase.folder bc name) elems
        | Error msg -> err "%s" msg);
        ""
      | [ "size"; name ] -> Value.of_int (Folder.length (Briefcase.folder bc name))
      | [ "exists"; name ] -> Value.of_bool (Briefcase.mem bc name)
      | [ "clear"; name ] ->
        Folder.clear (Briefcase.folder bc name);
        ""
      | [ "remove"; name ] ->
        Briefcase.remove bc name;
        ""
      | [ "contains"; name; v ] ->
        Value.of_bool (Folder.contains (Briefcase.folder bc name) v)
      | [ "names" ] -> Value.of_list (Briefcase.names bc)
      | _ -> err "folder: unknown subcommand or wrong # args")

let install_cabinet_cmd host it =
  let cab = host.cabinet in
  Interp.register it "cabinet" (fun _ args ->
      match args with
      | [ "put"; name; v ] ->
        Cabinet.put cab name v;
        ""
      | [ "push"; name; v ] ->
        Cabinet.push cab name v;
        ""
      | [ "pop"; name ] -> (
        match Cabinet.pop cab name with
        | Some v -> v
        | None -> err "cabinet pop: %S is empty" name)
      | [ "trypop"; name ] -> Option.value ~default:"" (Cabinet.pop cab name)
      | [ "peek"; name ] -> Option.value ~default:"" (Cabinet.peek cab name)
      | [ "list"; name ] -> Value.of_list (Cabinet.elements cab name)
      | "set" :: name :: elems ->
        Cabinet.replace cab name elems;
        ""
      | [ "size"; name ] -> Value.of_int (Cabinet.size cab name)
      | [ "exists"; name ] -> Value.of_bool (Cabinet.folder_exists cab name)
      | [ "clear"; name ] ->
        Cabinet.replace cab name [];
        ""
      | [ "contains"; name; v ] -> Value.of_bool (Cabinet.contains cab name v)
      | [ "remove"; name; v ] ->
        Cabinet.remove_element cab name v;
        ""
      | [ "names" ] -> Value.of_list (Cabinet.folder_names cab)
      | [ "kvset"; name; k; v ] ->
        Cabinet.set_kv cab name ~key:k v;
        ""
      | [ "kvget"; name; k ] -> Option.value ~default:"" (Cabinet.find_kv_opt cab name ~key:k)
      | [ "flush" ] ->
        Cabinet.flush cab;
        ""
      | [ "flush"; name ] ->
        Cabinet.flush_folder cab name;
        ""
      | _ -> err "cabinet: unknown subcommand or wrong # args")

let install host bc it =
  install_folder_cmd bc it;
  install_cabinet_cmd host it;

  Interp.register it "meet" (fun _ args ->
      match args with
      | [ agent ] ->
        host.meet agent;
        ""
      | _ -> err "wrong # args: should be \"meet agent\"");

  Interp.register it "jump" (fun _ args ->
      match args with
      | [ site ] | [ site; _ ] ->
        let contact = match args with [ _; c ] -> c | _ -> "ag_script" in
        Briefcase.set bc Briefcase.host_folder site;
        Briefcase.set bc Briefcase.contact_folder contact;
        host.meet "rexec";
        ""
      | _ -> err "wrong # args: should be \"jump site ?contact?\"");

  Interp.register it "selfcode" (fun _ _ -> host.code ());

  Interp.register it "dispatch" (fun _ args ->
      match args with
      | [ site; contact ] ->
        host.dispatch ~host:site ~contact;
        ""
      | _ -> err "wrong # args: should be \"dispatch site agent\"");

  Interp.register it "host" (fun _ _ -> host.site_name ());
  Interp.register it "self" (fun _ _ -> host.self ());
  Interp.register it "now" (fun _ _ -> Value.of_float (host.now ()));
  Interp.register it "neighbors" (fun _ _ -> Value.of_list (host.neighbors ()));

  Interp.register it "work" (fun _ args ->
      match args with
      | [ d ] ->
        host.sleep (float_arg "duration" d);
        ""
      | _ -> err "wrong # args: should be \"work seconds\"");

  Interp.register it "log" (fun _ args ->
      host.log (String.concat " " args);
      "");

  Interp.register it "random" (fun _ args ->
      match args with
      | [ n ] ->
        let n = int_arg "bound" n in
        if n <= 0 then err "random: bound must be positive";
        Value.of_int (host.random_int n)
      | _ -> err "wrong # args: should be \"random bound\"")
