module Decimal = Tacoma_util.Decimal
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Cabinet = Tacoma_core.Cabinet
module Net = Netsim.Net

type config = {
  ack_timeout : float;
  retry_period : float;
  max_relaunch : int;
  transport : Kernel.transport;
  durable : bool;
}

let default_config =
  {
    ack_timeout = 5.0;
    retry_period = 3.0;
    max_relaunch = 8;
    transport = Kernel.Tcp;
    durable = false;
  }

type guard_state = { mutable released : bool; mutable attempts : int }

type journey = {
  kernel : Kernel.t;
  cfg : config;
  id : string;
  itinerary : Netsim.Site.id array;
  work : Kernel.ctx -> hop:int -> Briefcase.t -> unit;
  on_complete : (Briefcase.t -> unit) option;
  guards : (int, guard_state) Hashtbl.t; (* hop covered -> state *)
  pre_released : (int, unit) Hashtbl.t; (* releases that beat their guard *)
  mutable completed : bool;
  mutable relaunches : int;
  mutable hops_done : int;
  mutable guards_installed : int;
  mutable giveups : int;
  mutable completion_attempts : int;
}

type stats = {
  completed : bool;
  relaunches : int;
  hops_done : int;
  guards_installed : int;
  giveups : int;
  duplicate_completions : int;
}

let stats (j : journey) : stats =
  {
    completed = j.completed;
    relaunches = j.relaunches;
    hops_done = j.hops_done;
    guards_installed = j.guards_installed;
    giveups = j.giveups;
    duplicate_completions = max 0 (j.completion_attempts - 1);
  }

let arrive_agent j = "escort-arrive:" ^ j.id
let release_agent j = "escort-release:" ^ j.id
let guard_agent j = "escort-guard:" ^ j.id
let seen_folder = "ESCORT-SEEN"
let done_folder = "ESCORT-DONE"
let ckpt_folder = "ESCORT-CKPT"
let ckpt_key j hop = j.id ^ ":" ^ Decimal.of_int hop

let hop_of bc =
  match Option.bind (Briefcase.find_opt bc "ESCORT-HOP") int_of_string_opt with
  | Some h -> h
  | None -> raise (Kernel.Agent_error "escort: missing ESCORT-HOP")

let send_release j ~src ~hop =
  (* release the guard covering [hop]; it sits at itinerary[hop - 1] *)
  if hop > 0 then begin
    let guard_site = j.itinerary.(hop - 1) in
    let bc = Briefcase.create () in
    Briefcase.set bc "ESCORT-HOP" (Decimal.of_int hop);
    Kernel.send_briefcase j.kernel ~src ~dst:guard_site ~contact:(release_agent j) bc
  end

let migrate_hop j ~src ~hop bc =
  let bc' = Briefcase.copy bc in
  Briefcase.set bc' "ESCORT-HOP" (Decimal.of_int hop);
  Kernel.migrate j.kernel ~src ~dst:j.itinerary.(hop) ~contact:(arrive_agent j)
    ~transport:j.cfg.transport bc'

(* The rear guard: an activation at itinerary[hop-1] covering [hop].  It
   holds the post-work snapshot and resends it while unreleased. *)
let run_guard j ctx ~hop snapshot =
  let m = Kernel.metrics j.kernel in
  (* a release may beat its own guard here: partition-delayed releases can
     arrive while a durable guard is still being resurrected from disk.
     Honouring the recorded release stops the resurrected guard from
     relaunching a hop that already acknowledged. *)
  let st = { released = Hashtbl.mem j.pre_released hop; attempts = 0 } in
  if st.released then Obs.Metrics.incr m "guard.pre_releases";
  Hashtbl.replace j.guards hop st;
  j.guards_installed <- j.guards_installed + 1;
  Kernel.sleep ctx j.cfg.ack_timeout;
  let rec watch () =
    if (not st.released) && not j.completed then begin
      Obs.Metrics.incr m "guard.ack_timeouts";
      if st.attempts < j.cfg.max_relaunch then begin
        st.attempts <- st.attempts + 1;
        j.relaunches <- j.relaunches + 1;
        Obs.Metrics.incr m "guard.relaunches";
        (let tr = Kernel.recorder j.kernel in
         if Obs.Tracer.enabled tr then
           Obs.Tracer.instant_strs tr Obs.Desc.guard_relaunch ~time:(Kernel.now j.kernel)
             ~span:(Kernel.briefcase_span snapshot) ~site:ctx.Kernel.site ~agent:"" j.id "" hop
             st.attempts);
        migrate_hop j ~src:ctx.Kernel.site ~hop snapshot;
        Kernel.sleep ctx (j.cfg.retry_period *. float_of_int st.attempts);
        watch ()
      end
      else begin
        Obs.Metrics.incr m "guard.giveups";
        j.giveups <- j.giveups + 1
        (* give up; the computation is lost unless another copy runs *)
      end
    end
  in
  watch ()

(* Arrival of the agent (original or relaunched) at itinerary[hop].

   Two site-local records dedup duplicate arrivals (relaunch racing the
   original or its ack):
   - the volatile seen-record marks the hop as *started*: a crash clears it,
     so a genuine relaunch after a crash redoes the hop;
   - the flushed done-record marks the hop as *finished* (work done, next
     guard installed, agent moved on): it survives a crash, so a relaunch
     arriving after the site recovered cannot re-execute a finished hop —
     instead the release is re-sent, which is exactly what the still-waiting
     guard is missing when its release was partition-delayed or lost. *)
let arrive j ctx bc =
  let hop = hop_of bc in
  let site = ctx.Kernel.site in
  let cab = Kernel.cabinet j.kernel site in
  let seen_key = j.id ^ ":" ^ Decimal.of_int hop in
  let m = Kernel.metrics j.kernel in
  if Cabinet.contains cab done_folder seen_key then begin
    Obs.Metrics.incr m "guard.releases_resent";
    send_release j ~src:site ~hop
  end
  else if Cabinet.contains cab seen_folder seen_key then
    (* started but not finished here: the original is still working at this
       site, so the duplicate is dropped and the guard keeps covering *)
    Obs.Metrics.incr m "guard.duplicate_arrivals"
  else begin
    Cabinet.put cab seen_folder seen_key;
    j.work ctx ~hop bc;
    j.hops_done <- max j.hops_done hop;
    let mark_done () =
      Cabinet.put cab done_folder seen_key;
      Cabinet.flush_folder cab done_folder
    in
    let last = hop = Array.length j.itinerary - 1 in
    if last then begin
      mark_done ();
      send_release j ~src:site ~hop;
      j.completion_attempts <- j.completion_attempts + 1;
      if j.completion_attempts > 1 then Obs.Metrics.incr m "guard.duplicate_completions";
      if not j.completed then begin
        j.completed <- true;
        match j.on_complete with None -> () | Some f -> f bc
      end
    end
    else begin
      (* post-work snapshot guards the next hop *)
      let snapshot = Briefcase.copy bc in
      let gbc = Briefcase.create () in
      Briefcase.set gbc "ESCORT-HOP" (Decimal.of_int (hop + 1));
      (* present only while tracing: the guard activation then joins the
         journey's trace instead of starting an unrelated root *)
      (match Briefcase.find_opt bc Briefcase.trace_folder with
      | Some span -> Briefcase.set gbc Briefcase.trace_folder span
      | None -> ());
      Folder_stash.put gbc snapshot;
      if j.cfg.durable then begin
        (* checkpoint the guard to disk: if this site crashes and restarts,
           the guard is resurrected from the flushed cabinet — closing the
           guard-site-failure window the paper calls "complex" *)
        Cabinet.set_kv cab ckpt_folder ~key:(ckpt_key j (hop + 1)) (Briefcase.serialize gbc);
        Cabinet.flush_folder cab ckpt_folder
      end;
      Kernel.launch j.kernel ~site ~contact:(guard_agent j) gbc;
      send_release j ~src:site ~hop;
      migrate_hop j ~src:site ~hop:(hop + 1) bc;
      mark_done ()
    end
  end

let release j ctx bc =
  let hop = hop_of bc in
  (match Hashtbl.find_opt j.guards hop with
  | Some st -> st.released <- true
  | None ->
    (* guard already gone, or not yet (re)installed: remember the release so
       a guard resurrected after this point starts out released instead of
       relaunching a hop that already acknowledged *)
    Hashtbl.replace j.pre_released hop ());
  if j.cfg.durable then begin
    let cab = Kernel.cabinet j.kernel ctx.Kernel.site in
    Cabinet.remove_kv cab ckpt_folder ~key:(ckpt_key j hop);
    Cabinet.flush_folder cab ckpt_folder
  end

(* Resurrect checkpointed guards when a site comes back from a crash. *)
let recover_checkpoints (j : journey) site () =
  if not j.completed then begin
    let cab = Kernel.cabinet j.kernel site in
    let prefix = j.id ^ ":" in
    List.iter
      (fun (key, wire) ->
        if
          String.length key > String.length prefix
          && String.sub key 0 (String.length prefix) = prefix
        then
          match Briefcase.deserialize wire with
          | gbc -> Kernel.launch j.kernel ~site ~contact:(guard_agent j) gbc
          | exception Tacoma_core.Codec.Malformed _ -> ())
      (Cabinet.kv_bindings cab ckpt_folder)
  end

let register_agents j =
  Kernel.register_native j.kernel (arrive_agent j) (fun ctx bc -> arrive j ctx bc);
  Kernel.register_native j.kernel (release_agent j) (fun ctx bc -> release j ctx bc);
  Kernel.register_native j.kernel (guard_agent j) (fun ctx gbc ->
      let hop = hop_of gbc in
      let snapshot = Folder_stash.take gbc in
      run_guard j ctx ~hop snapshot);
  if j.cfg.durable then
    List.iter
      (fun site -> Net.on_restart (Kernel.net j.kernel) site (recover_checkpoints j site))
      (List.sort_uniq compare (Array.to_list j.itinerary))

let guarded_journey kernel ?(config = default_config) ~id ~itinerary ~work ?on_complete bc =
  if itinerary = [] then invalid_arg "Escort.guarded_journey: empty itinerary";
  if Kernel.agent_exists kernel (List.hd itinerary) ("escort-arrive:" ^ id) then
    invalid_arg "Escort.guarded_journey: duplicate journey id";
  let j =
    {
      kernel;
      cfg = config;
      id;
      itinerary = Array.of_list itinerary;
      work;
      on_complete;
      guards = Hashtbl.create 8;
      pre_released = Hashtbl.create 8;
      completed = false;
      relaunches = 0;
      hops_done = -1;
      guards_installed = 0;
      giveups = 0;
      completion_attempts = 0;
    }
  in
  register_agents j;
  let bc = Briefcase.copy bc in
  Briefcase.set bc "ESCORT-HOP" "0";
  Kernel.launch kernel ~site:j.itinerary.(0) ~contact:(arrive_agent j) bc;
  j

let unguarded_journey kernel ?(transport = Kernel.Tcp) ~id ~itinerary ~work ?on_complete bc =
  let config =
    {
      ack_timeout = infinity;
      retry_period = infinity;
      max_relaunch = 0;
      transport;
      durable = false;
    }
  in
  (* same machinery with guards that never fire; skip guard installation by
     using max_relaunch = 0 and a dedicated arrive handler *)
  if itinerary = [] then invalid_arg "Escort.unguarded_journey: empty itinerary";
  let j =
    {
      kernel;
      cfg = config;
      id;
      itinerary = Array.of_list itinerary;
      work;
      on_complete;
      guards = Hashtbl.create 1;
      pre_released = Hashtbl.create 1;
      completed = false;
      relaunches = 0;
      hops_done = -1;
      guards_installed = 0;
      giveups = 0;
      completion_attempts = 0;
    }
  in
  let arrive_name = arrive_agent j in
  let plain_arrive ctx bc =
    let hop = hop_of bc in
    j.work ctx ~hop bc;
    j.hops_done <- max j.hops_done hop;
    if hop = Array.length j.itinerary - 1 then begin
      j.completion_attempts <- j.completion_attempts + 1;
      if not j.completed then begin
        j.completed <- true;
        match j.on_complete with None -> () | Some f -> f bc
      end
    end
    else migrate_hop j ~src:ctx.Kernel.site ~hop:(hop + 1) bc
  in
  Kernel.register_native kernel arrive_name (fun ctx bc -> plain_arrive ctx bc);
  let bc = Briefcase.copy bc in
  Briefcase.set bc "ESCORT-HOP" "0";
  Kernel.launch kernel ~site:j.itinerary.(0) ~contact:arrive_name bc;
  j

let fanout kernel ?(config = default_config) ~id ~branches ~work ?on_all_complete bc =
  let total = List.length branches in
  let done_count = ref 0 in
  let fired = ref false in
  List.mapi
    (fun i branch ->
      guarded_journey kernel ~config
        ~id:(id ^ "." ^ Decimal.of_int i)
        ~itinerary:branch ~work
        ~on_complete:(fun _ ->
          incr done_count;
          if !done_count = total && not !fired then begin
            fired := true;
            match on_all_complete with None -> () | Some f -> f ()
          end)
        (Briefcase.copy bc))
    branches
