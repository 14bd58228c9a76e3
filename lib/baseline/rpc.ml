module Net = Netsim.Net

type Netsim.Message.payload +=
  | Request of { rid : int; service : string; query : string; reply_to : Netsim.Site.id }
  | Response of { rid : int; data : string list }

let request_overhead = 96
let response_overhead = 96

(* All call state lives in the client handle — request ids and the pending
   table are per-client, never process-wide, so concurrent simulations in a
   pool sweep can't collide on rids or dispatch each other's callbacks. *)
type client = {
  net : Net.t;
  src : Netsim.Site.id;
  mutable next_rid : int;
  pending : (int, string list -> unit) Hashtbl.t;
}

let data_bytes rows = List.fold_left (fun acc r -> acc + String.length r) 0 rows

let serve net ~site ~service handler =
  Net.set_handler net site ~key:("rpc:" ^ service) (fun msg ->
      match msg.Netsim.Message.payload with
      | Request { rid; service = s; query; reply_to } when s = service ->
        let rows = handler ~query in
        let size = response_overhead + data_bytes rows in
        Net.send net ~src:site ~dst:reply_to ~size (Response { rid; data = rows })
      | Request _ | Response _ | _ -> ())

let client net ~src =
  let c = { net; src; next_rid = 0; pending = Hashtbl.create 16 } in
  Net.set_handler net src ~key:"rpc-client" (fun msg ->
      match msg.Netsim.Message.payload with
      | Response { rid; data } -> (
        match Hashtbl.find_opt c.pending rid with
        | Some k ->
          Hashtbl.remove c.pending rid;
          k data
        | None -> ())
      | Request _ | _ -> ());
  c

let call c ~dst ~service ~query ~on_reply =
  c.next_rid <- c.next_rid + 1;
  let rid = c.next_rid in
  Hashtbl.replace c.pending rid on_reply;
  Net.send c.net ~src:c.src ~dst
    ~size:(request_overhead + String.length query)
    (Request { rid; service; query; reply_to = c.src })
