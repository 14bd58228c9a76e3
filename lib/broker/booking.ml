module Decimal = Tacoma_util.Decimal
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Net = Netsim.Net

type outcome = Booked of { provider : string; attempts : int } | Failed of { attempts : int }

type t = {
  kernel : Kernel.t;
  id : string;
  service : string;
  client : Netsim.Site.id;
  broker_site : Netsim.Site.id;
  broker_name : string;
  work : float;
  timeout : float;
  policy : Policy.t option;
  on_done : (outcome -> unit) option;
  mutable attempt : int;
  mutable excluded : string list;
  mutable current_provider : string option;
  mutable result : outcome option;
}

(* attempts per booking: the first and two failovers *)
let max_attempts = 3
let reply_agent t = "booking-reply:" ^ t.id
let result t = t.result
let attempts t = t.attempt

let finish t outcome =
  if t.result = None then begin
    t.result <- Some outcome;
    let m = Kernel.metrics t.kernel in
    (match outcome with
    | Booked _ -> Obs.Metrics.incr m "broker.bookings_ok"
    | Failed _ -> Obs.Metrics.incr m "broker.booking_failures");
    match t.on_done with None -> () | Some f -> f outcome
  end

let send_to_broker t bc =
  Kernel.send_briefcase t.kernel ~src:t.client ~dst:t.broker_site ~contact:t.broker_name bc

let rec start_attempt t =
  if t.result = None then begin
    t.attempt <- t.attempt + 1;
    if t.attempt > max_attempts then finish t (Failed { attempts = max_attempts })
    else begin
      let this_attempt = t.attempt in
      t.current_provider <- None;
      let bc = Briefcase.create () in
      Briefcase.set bc "OP" "lookup";
      Briefcase.set bc "SERVICE" t.service;
      (match t.policy with
      | Some p -> Briefcase.set bc "POLICY" (Policy.name p)
      | None -> ());
      if t.excluded <> [] then Briefcase.set bc "EXCLUDE" (String.concat "," t.excluded);
      Kernel.set_reply_to t.kernel bc ~site:t.client ~agent:(reply_agent t);
      send_to_broker t bc;
      (* the end-to-end timer: whether the lookup, the job submission or the
         provider's completion notice is lost or stranded behind a
         partition, the attempt expires as a whole and the next one excludes
         the provider that failed us *)
      ignore
        (Net.schedule (Kernel.net t.kernel) ~after:t.timeout (fun () ->
             if t.result = None && t.attempt = this_attempt then begin
               let m = Kernel.metrics t.kernel in
               Obs.Metrics.incr m "broker.failovers";
               (match t.current_provider with
               | Some p when not (List.mem p t.excluded) -> t.excluded <- p :: t.excluded
               | Some _ | None -> ());
               start_attempt t
             end))
    end
  end

let handle_reply t bc =
  if t.result = None then begin
    match Briefcase.find_opt bc "OP" with
    | Some "lookup" -> (
      (* the broker's answer: submit the job to the chosen provider *)
      match
        ( Briefcase.find_opt bc "STATUS",
          Briefcase.find_opt bc "PROVIDER",
          Option.bind (Briefcase.find_opt bc "PROVIDER-HOST") (Kernel.site_named t.kernel)
        )
      with
      | Some "ok", Some provider, Some psite ->
        t.current_provider <- Some provider;
        let job = Briefcase.create () in
        Briefcase.set job "JOB" (t.id ^ "#" ^ Decimal.of_int t.attempt);
        Briefcase.set job "WORK" (string_of_float t.work);
        Kernel.set_reply_to t.kernel job ~site:t.client ~agent:(reply_agent t);
        Kernel.send_briefcase t.kernel ~src:t.client ~dst:psite ~contact:provider job
      | _ ->
        (* no provider right now: leave the attempt timer running; load
           reports may refresh the database before it expires *)
        ())
    | Some _ | None -> (
      (* a provider's completion notice *)
      match Briefcase.find_opt bc "STATUS" with
      | Some "done" ->
        let provider =
          match Briefcase.find_opt bc "PROVIDER" with
          | Some p -> p
          | None -> Option.value ~default:"?" t.current_provider
        in
        finish t (Booked { provider; attempts = t.attempt })
      | _ -> ())
  end
  else if Briefcase.find_opt bc "STATUS" = Some "done" then
    (* a booking that failed over can still be fulfilled late by the
       abandoned provider: the work then ran twice.  Surface it. *)
    Obs.Metrics.incr (Kernel.metrics t.kernel) "broker.duplicate_fulfillments"

let book kernel ~client ~broker:(broker_site, broker_name) ~service ?(work = 1.0)
    ?policy ?(timeout = 10.0) ?on_done ~id () =
  let t =
    {
      kernel;
      id;
      service;
      client;
      broker_site;
      broker_name;
      work;
      timeout;
      policy;
      on_done;
      attempt = 0;
      excluded = [];
      current_provider = None;
      result = None;
    }
  in
  Obs.Metrics.incr (Kernel.metrics kernel) "broker.bookings";
  Kernel.register_native kernel ~site:t.client (reply_agent t) (fun _ bc ->
      handle_reply t bc);
  start_attempt t;
  t
