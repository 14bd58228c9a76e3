module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Cabinet = Tacoma_core.Cabinet
module Value = Tscript.Value

type message = {
  from_user : string;
  to_user : string;
  subject : string;
  body : string;
  sent_at : float;
}

let wire m =
  Value.of_list [ m.from_user; m.to_user; m.subject; m.body; Printf.sprintf "%.6f" m.sent_at ]

let of_wire w =
  match Value.to_list w with
  | Ok [ from_user; to_user; subject; body; sent_at ] -> (
    match float_of_string_opt sent_at with
    | Some sent_at -> Ok { from_user; to_user; subject; body; sent_at }
    | None -> Error "bad timestamp")
  | Ok _ -> Error "expected five fields"
  | Error e -> Error e

let dir_folder = "MAILDIR"
let list_folder = "MAILLIST"
let forward_folder = "FORWARD"
let vacation_folder = "VACATION"
let vacation_sent_folder = "VACATION-SENT"
let mailbox_folder user = "MAILBOX:" ^ user
let max_hops = 8

let all_sites kernel = Netsim.Net.sites (Kernel.net kernel)

(* Mail configuration is durable state (like /etc/aliases): every write is
   flushed so it survives a site crash and restart. *)
let set_kv_durable kernel site folder ~key value =
  let cab = Kernel.cabinet kernel site in
  Cabinet.set_kv cab folder ~key value;
  Cabinet.flush_folder cab folder

let register_user kernel ~user ~home =
  let home_name = Kernel.site_name kernel home in
  List.iter
    (fun site -> set_kv_durable kernel site dir_folder ~key:user home_name)
    (all_sites kernel)

let make_list kernel ~name ~members =
  List.iter
    (fun site -> set_kv_durable kernel site list_folder ~key:name (Value.of_list members))
    (all_sites kernel)

let set_forward kernel ~user ~to_user =
  List.iter
    (fun site -> set_kv_durable kernel site forward_folder ~key:user to_user)
    (all_sites kernel)

let set_vacation kernel ~user ~note =
  List.iter
    (fun site -> set_kv_durable kernel site vacation_folder ~key:user note)
    (all_sites kernel)

let dispatch kernel ~src msg ~hops =
  let bc = Briefcase.create () in
  Briefcase.set bc "MSG" (wire msg);
  Briefcase.set bc "HOPS" (Tacoma_util.Decimal.of_int hops);
  (* the message agent starts its journey locally *)
  Kernel.launch kernel ~site:src ~contact:"mail" bc

let setup kernel =
  Kernel.register_native kernel "mail" (fun ctx bc ->
      let k = ctx.Kernel.kernel in
      let site = ctx.Kernel.site in
      let cab = Kernel.cabinet k site in
      let msg =
        match Option.map of_wire (Briefcase.find_opt bc "MSG") with
        | Some (Ok m) -> m
        | Some (Error e) -> raise (Kernel.Agent_error ("mail: corrupt message: " ^ e))
        | None -> raise (Kernel.Agent_error "mail: missing MSG folder")
      in
      let hops =
        Option.value ~default:0 (Option.bind (Briefcase.find_opt bc "HOPS") int_of_string_opt)
      in
      let resend ~to_user =
        dispatch k ~src:site { msg with to_user } ~hops:(hops + 1)
      in
      if hops > max_hops then () (* mail loop: drop *)
      else
        match Cabinet.find_kv_opt cab list_folder ~key:msg.to_user with
        | Some members ->
          (* mailing list: the agent clones per member *)
          List.iter (fun m -> resend ~to_user:m) (Value.to_list_exn members)
        | None -> (
          match Cabinet.find_kv_opt cab dir_folder ~key:msg.to_user with
          | None ->
            (* unknown recipient: bounce to the sender, unless that would loop *)
            if Cabinet.find_kv_opt cab dir_folder ~key:msg.from_user <> None then
              dispatch k ~src:site
                {
                  from_user = "postmaster";
                  to_user = msg.from_user;
                  subject = "bounced: " ^ msg.subject;
                  body = "no such user " ^ msg.to_user;
                  sent_at = Kernel.now k;
                }
                ~hops:(hops + 1)
          | Some home_name ->
            let home = Option.get (Kernel.site_named k home_name) in
            if home <> site then begin
              (* travel to the recipient's home *)
              Briefcase.set bc "HOPS" (Tacoma_util.Decimal.of_int hops);
              Briefcase.set bc Briefcase.host_folder home_name;
              Briefcase.set bc Briefcase.contact_folder "mail";
              Kernel.meet ctx "rexec" bc
            end
            else
              match Cabinet.find_kv_opt cab forward_folder ~key:msg.to_user with
              | Some target when target <> msg.to_user -> resend ~to_user:target
              | Some _ | None ->
                Cabinet.put cab (mailbox_folder msg.to_user) (wire msg);
                (* delivered mail is durable *)
                Cabinet.flush_folder cab (mailbox_folder msg.to_user);
                (* vacation auto-reply, once per sender, never to replies *)
                (match Cabinet.find_kv_opt cab vacation_folder ~key:msg.to_user with
                | Some note
                  when msg.from_user <> "postmaster"
                       && (not
                             (Cabinet.contains cab
                                (vacation_sent_folder ^ ":" ^ msg.to_user)
                                msg.from_user))
                       && not (String.length msg.subject >= 9
                              && String.sub msg.subject 0 9 = "vacation:") ->
                  Cabinet.put cab (vacation_sent_folder ^ ":" ^ msg.to_user) msg.from_user;
                  dispatch k ~src:site
                    {
                      from_user = msg.to_user;
                      to_user = msg.from_user;
                      subject = "vacation: " ^ msg.subject;
                      body = note;
                      sent_at = Kernel.now k;
                    }
                    ~hops:(hops + 1)
                | Some _ | None -> ())))

let send kernel ~src ~from_user ~to_user ~subject ~body =
  dispatch kernel ~src
    { from_user; to_user; subject; body; sent_at = Kernel.now kernel }
    ~hops:0

let mailbox kernel ~user =
  (* find the user's home from any directory replica *)
  match all_sites kernel with
  | [] -> []
  | site0 :: _ -> (
    match Cabinet.find_kv_opt (Kernel.cabinet kernel site0) dir_folder ~key:user with
    | None -> []
    | Some home_name -> (
      match Kernel.site_named kernel home_name with
      | None -> []
      | Some home ->
        List.filter_map
          (fun w -> Result.to_option (of_wire w))
          (Cabinet.elements (Kernel.cabinet kernel home) (mailbox_folder user))))
