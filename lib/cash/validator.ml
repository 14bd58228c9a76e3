module Decimal = Tacoma_util.Decimal
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder

let agent_name = "validator"

let read_ecus bc =
  Folder.fold
    (fun acc elem -> match Ecu.of_wire elem with Ok e -> e :: acc | Error _ -> acc)
    []
    (Briefcase.folder bc "ECUS")
  |> List.rev

let write_result bc result =
  let folder = Briefcase.folder bc "ECUS" in
  Folder.clear folder;
  match result with
  | Ok fresh ->
    Briefcase.set bc "STATUS" "ok";
    List.iter (Folder.enqueue folder) (Ecu.wire_list fresh)
  | Error failure -> Briefcase.set bc "STATUS" failure

let perform metrics mint bc =
  let ecus = read_ecus bc in
  let op = Option.value ~default:"validate" (Briefcase.find_opt bc "OP") in
  let result =
    match (op, ecus) with
    | "validate", es ->
      (* all-or-nothing: verify the whole batch (including duplicates of
         one bill inside the batch) before retiring anything, so a thief
         cannot launder a mixed batch *)
      let serials = List.map (fun e -> e.Ecu.serial) es in
      if List.length (List.sort_uniq compare serials) <> List.length serials then
        Error (Mint.failure_name Mint.Double_spent)
      else (
        match
          List.find_map
            (fun e ->
              if not (Mint.signature_valid mint e) then Some Mint.Forged
              else if not (Mint.live mint e) then Some Mint.Double_spent
              else None)
            es
        with
        | Some failure -> Error (Mint.failure_name failure)
        | None ->
          Ok
            (List.map
               (fun e ->
                 match Mint.validate_and_reissue mint e with
                 | Ok fresh -> fresh
                 | Error _ -> assert false (* just verified live *))
               es))
    | "split", [ e ] -> (
      let parts =
        List.filter_map int_of_string_opt (Folder.to_list (Briefcase.folder bc "PARTS"))
      in
      match Mint.split mint e ~parts with
      | Ok fresh -> Ok fresh
      | Error failure -> Error (Mint.failure_name failure)
      | exception Invalid_argument msg -> Error msg)
    | "split", _ -> Error "split expects exactly one bill"
    | "merge", (_ :: _ as es) -> (
      match Mint.merge mint es with
      | Ok fresh -> Ok [ fresh ]
      | Error failure -> Error (Mint.failure_name failure))
    | "merge", [] -> Error "merge expects at least one bill"
    | other, _ -> Error (Printf.sprintf "unknown operation %S" other)
  in
  Obs.Metrics.incr metrics ~labels:[ ("op", op) ] "cash.validations";
  (match result with
  | Ok _ -> ()
  | Error failure -> Obs.Metrics.incr metrics ~labels:[ ("reason", failure) ] "cash.rejections");
  write_result bc result

let install kernel ~site mint =
  let metrics = Kernel.metrics kernel in
  Kernel.register_native kernel ~site agent_name (fun _ bc -> perform metrics mint bc);
  (* remote endpoint: perform, then send the briefcase back to the named
     reply agent at the requesting site *)
  Kernel.register_native kernel ~site "validator_rpc" (fun ctx bc ->
      perform metrics mint bc;
      match (Briefcase.find_opt bc "REPLY-HOST", Briefcase.find_opt bc "REPLY-AGENT") with
      | Some host, Some reply_agent -> (
        match Kernel.site_named ctx.Kernel.kernel host with
        | Some dst ->
          Kernel.send_briefcase ctx.Kernel.kernel ~src:ctx.Kernel.site ~dst
            ~contact:reply_agent bc
        | None -> raise (Kernel.Agent_error "validator_rpc: unknown REPLY-HOST"))
      | _ -> raise (Kernel.Agent_error "validator_rpc: missing reply address"))

let remote_validate kernel ~src ~bank ecus ~on_reply =
  (* per-kernel ids: a process-wide counter would make the reply-agent name
     (serialised into the briefcase, so part of the byte accounting) depend
     on whatever other simulations ran first in this process *)
  let reply_agent = "cash-reply-" ^ Decimal.of_int (Kernel.fresh_id kernel) in
  let fired = ref false in
  Kernel.register_native kernel ~site:src reply_agent (fun _ bc ->
      if not !fired then begin
        fired := true;
        match Briefcase.find_opt bc "STATUS" with
        | Some "ok" -> on_reply (Ok (read_ecus bc))
        | Some failure -> on_reply (Error failure)
        | None -> on_reply (Error "missing status")
      end);
  let bc = Briefcase.create () in
  Briefcase.set bc "OP" "validate";
  Folder.replace (Briefcase.folder bc "ECUS") (Ecu.wire_list ecus);
  Briefcase.set bc "REPLY-HOST" (Kernel.site_name kernel src);
  Briefcase.set bc "REPLY-AGENT" reply_agent;
  Kernel.send_briefcase kernel ~src ~dst:bank ~contact:"validator_rpc" bc
