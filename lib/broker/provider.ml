module Decimal = Tacoma_util.Decimal
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Cabinet = Tacoma_core.Cabinet

type job = { work : float; reply : (string * string) option; job_id : string }

type t = {
  pname : string;
  pservice : string;
  pcapacity : float;
  psite : Netsim.Site.id;
  queue : job Queue.t;
  mutable running : bool;
  mutable completed : int;
  mutable rejected : int;
  mutable busy : float;
}

let name t = t.pname
let service t = t.pservice
let capacity t = t.pcapacity
let site t = t.psite
let queue_length t = Queue.length t.queue + if t.running then 1 else 0
let completed t = t.completed
let rejected t = t.rejected
let busy_time t = t.busy

let publish_load kernel t =
  Cabinet.set_kv (Kernel.cabinet kernel t.psite) "LOAD" ~key:("queue:" ^ t.pname)
    (Decimal.of_int (queue_length t))

let notify kernel t job status =
  match job.reply with
  | None -> ()
  | Some (host, agent) -> (
    match Kernel.site_named kernel host with
    | None -> ()
    | Some dst ->
      let out = Briefcase.create () in
      Briefcase.set out "JOB" job.job_id;
      Briefcase.set out "STATUS" status;
      Briefcase.set out "PROVIDER" t.pname;
      Kernel.send_briefcase kernel ~src:t.psite ~dst ~contact:agent out)

(* Serve jobs one at a time inside a dedicated activation; new arrivals while
   busy just extend the queue that the running activation drains. *)
let rec serve_loop kernel t ctx =
  match Queue.take_opt t.queue with
  | None ->
    t.running <- false;
    publish_load kernel t
  | Some job ->
    publish_load kernel t;
    let duration = job.work /. Float.max 0.001 t.pcapacity in
    Kernel.sleep ctx duration;
    t.busy <- t.busy +. duration;
    t.completed <- t.completed + 1;
    notify kernel t job "done";
    serve_loop kernel t ctx

let install kernel ~site ~name ~service ~capacity ?ticket_key () =
  let t =
    {
      pname = name;
      pservice = service;
      pcapacity = capacity;
      psite = site;
      queue = Queue.create ();
      running = false;
      completed = 0;
      rejected = 0;
      busy = 0.0;
    }
  in
  Kernel.register_native kernel ~site name (fun ctx bc ->
      let ticket_ok =
        match ticket_key with
        | None -> true
        | Some key -> (
          match Option.map Ticket.of_wire (Briefcase.find_opt bc "TICKET") with
          | Some (Ok tk) ->
            Ticket.valid ~key ~now:(Kernel.now ctx.Kernel.kernel) tk
            && tk.Ticket.service = t.pservice
          | Some (Error _) | None -> false)
      in
      if not ticket_ok then begin
        t.rejected <- t.rejected + 1;
        Briefcase.set bc "STATUS" "rejected"
      end
      else begin
        let work =
          match Option.bind (Briefcase.find_opt bc "WORK") float_of_string_opt with
          | Some w when w > 0.0 -> w
          | Some _ | None -> 1.0
        in
        let reply =
          match (Briefcase.find_opt bc "REPLY-HOST", Briefcase.find_opt bc "REPLY-AGENT") with
          | Some h, Some a -> Some (h, a)
          | _ -> None
        in
        let job_id = Option.value ~default:"job" (Briefcase.find_opt bc "JOB") in
        Queue.add { work; reply; job_id } t.queue;
        Briefcase.set bc "STATUS" "queued";
        publish_load kernel t;
        if not t.running then begin
          t.running <- true;
          (* the serving loop runs as its own activation so the submitting
             agent is not blocked behind the whole queue *)
          Kernel.register_native kernel ~site ("serve-loop:" ^ t.pname) (fun ctx _ ->
              serve_loop kernel t ctx);
          Kernel.launch kernel ~site ~contact:("serve-loop:" ^ t.pname) (Briefcase.create ())
        end
      end);
  publish_load kernel t;
  t

(* a top-level recursion, not a [List.iter] closure on every tick *)
let rec send_report kernel t report = function
  | [] -> ()
  | (broker_site, broker_agent) :: rest ->
    Kernel.send_briefcase kernel ~src:t.psite ~dst:broker_site ~contact:broker_agent report;
    send_report kernel t report rest

let start_load_monitor kernel t ~brokers ~period =
  let loop_agent = "loadmon:" ^ t.pname in
  Kernel.register_native kernel loop_agent (fun ctx _ ->
      (* the fixed fields are rendered once per monitor activation; a tick
         sets only LOAD, and [send_briefcase] snapshots the report *)
      let report = Briefcase.create () in
      Briefcase.set report "OP" "report";
      Briefcase.set report "PROVIDER" t.pname;
      Briefcase.set report "SERVICE" t.pservice;
      Briefcase.set report "HOST" (Kernel.site_name kernel t.psite);
      Briefcase.set report "CAPACITY" (string_of_float t.pcapacity);
      let rec loop () =
        if Netsim.Net.site_up (Kernel.net kernel) t.psite then begin
          Briefcase.set report "LOAD" (Decimal.of_int (queue_length t));
          send_report kernel t report brokers;
          Kernel.sleep ctx period;
          loop ()
        end
      in
      loop ());
  Kernel.launch ~daemon:true kernel ~site:t.psite ~contact:loop_agent (Briefcase.create ())
