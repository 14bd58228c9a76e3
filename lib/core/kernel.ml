module Net = Netsim.Net
module Engine = Netsim.Engine
module Rng = Tacoma_util.Rng
module Stbl = Hashtbl.Make (String)
module Imap = Map.Make (Int)

type transport = Rsh | Tcp | Horus

let transport_of_string s =
  match String.lowercase_ascii s with
  | "rsh" -> Some Rsh
  | "tcp" -> Some Tcp
  | "horus" -> Some Horus
  | _ -> None

let transport_name = function Rsh -> "rsh" | Tcp -> "tcp" | Horus -> "horus"

let migrate_event = function
  | Rsh -> Obs.Desc.migrate_rsh
  | Tcp -> Obs.Desc.migrate_tcp
  | Horus -> Obs.Desc.migrate_horus

type horus_config = { rto : float; max_attempts : int; group : bool }
type cache_config = Codecache.config = { budget_bytes : int; fetch_timeout : float }

type config = {
  default_transport : transport;
  step_limit : int option;
  horus : horus_config;
  cache : cache_config option;
}

(* The rsh numbers model spawning a fresh interpreter per hop (fork/exec +
   login) as the first TACOMA prototype did; tcp models a cached connection
   with a 3-way handshake on first use; horus adds acks and retransmission. *)
let migration_overhead = 128
let rsh_spawn_delay = 0.25
let rsh_extra_bytes = 1024
let tcp_handshake_bytes = 192
let tcp_extra_bytes = 64
let horus_extra_bytes = 256
let horus_ack_bytes = 64
let default_cache_config = Codecache.default_config

let default_config =
  {
    default_transport = Tcp;
    step_limit = Some 2_000_000;
    horus = { rto = 1.0; max_attempts = 5; group = false };
    cache = None;
  }

exception Agent_error of string
exception Aborted of string

type ack_state = {
  mutable attempts : int;
  ack_src : int;
  ack_dst : int;
  ack_size : int;
  ack_payload : Netsim.Message.payload;
  mutable ack_timer : Engine.timer option;
}

type pending_fetch = {
  pf_site : int;
  pf_contact : string;
  pf_bc : Briefcase.t;
  pf_digest : string;
  pf_span : Obs.Span.ctx;
  mutable pf_timer : Engine.timer option;
  mutable pf_attempts : int;
}

(* A site's volatile kernel state.  The crash hook swaps in an empty place,
   so all of it dies with the site; a timer armed under a place acts only
   while [t.places.(site) == place]. *)
type place = {
  cache : Codecache.t option; (* [Some _] iff cfg.cache = Some _ *)
  mutable peers : place Imap.t; (* TCP: dst -> dst's place when the connection opened *)
  mutable acks : ack_state Imap.t; (* Horus migrations awaiting an ack, by mid *)
  mutable fetches : pending_fetch Imap.t; (* code fetches holding an activation, by fid *)
  seen : (int, unit) Hashtbl.t; (* mids of the Horus migrations delivered here *)
}

type t = {
  net : Net.t;
  cfg : config;
  places : place array;
  cabs : Cabinet.t array; (* stable storage: recovered, not replaced, at restart *)
  interp_caches : Tscript.Interp.caches;
      (* compile caches shared by every per-activation interpreter: an
         agent's script and loop expressions are compiled once per
         simulation, not once per activation *)
  mutable fetch_counter : int;
  cache_saved : Obs.Metrics.counter_handle;
      (* net wire bytes the code cache has avoided: bytes stripped from
         migrations, minus everything the fallback fetch protocol cost *)
  agents : agent Stbl.t;
  meets : Obs.Metrics.counter_handle;
  name_to_site : (string, int) Hashtbl.t;
  mutable mid_counter : int;
  mutable id_counter : int;
  rng : Rng.t;
  mutable death_hooks : (site:Netsim.Site.id -> agent:string -> reason:string -> unit) list;
  mutable complete_hooks : (site:Netsim.Site.id -> agent:string -> unit) list;
  mutable group : Horus.Group.t option;
  mutable step_policy : (Briefcase.t -> int option) option;
}

(* Everything installed under one agent name, looked up once per delivery
   by that name: the site-scoped and global implementations, handles on
   the name's activation and completion counters (which register on first
   use) and, once it has run a script, its interpreter profile. *)
and agent = {
  mutable site_natives : (Netsim.Site.id * native) list;
  mutable global_native : native option;
  mutable site_scripts : (Netsim.Site.id * string) list;
  mutable global_script : string option;
  activations : Obs.Metrics.counter_handle;
  completions : Obs.Metrics.counter_handle;
  mutable profile : profile option;
}

(* the series [run_code] records after every script run: per agent, and
   the unlabeled counters over the shared compile caches *)
and profile = {
  runs : Obs.Metrics.counter_handle;
  steps : Obs.Metrics.histogram_handle;
  sim_s : Obs.Metrics.histogram_handle;
  proc_calls : Obs.Metrics.histogram_handle;
  proc_depth : Obs.Metrics.histogram_handle;
  parse_hits : Obs.Metrics.counter_handle;
  parse_misses : Obs.Metrics.counter_handle;
  parse_evictions : Obs.Metrics.counter_handle;
  expr_hits : Obs.Metrics.counter_handle;
  expr_misses : Obs.Metrics.counter_handle;
}

and ctx = { kernel : t; site : Netsim.Site.id; self : string }
and native = ctx -> Briefcase.t -> unit

(* A migration carries a snapshot of the briefcase, not its encoding: the
   network only needs its size ({!Briefcase.byte_size}, exactly the encoded
   length) and the receiver an isolated copy of its folders. *)
type Netsim.Message.payload +=
  | Migration of { mid : int; contact : string; bc : Briefcase.t; needs_ack : bool }
  | Migration_ack of { mid : int }
  | Code_fetch of { fid : int; digest : string }
  | Code_fetch_reply of { fid : int; code : string list option }

(* carries the sleeper's [ctx], so one handler serves every kernel *)
type _ Effect.t += Sleep_eff : ctx * float -> unit Effect.t

let net t = t.net
let config t = t.cfg
let now t = Net.now t.net
let rng t = t.rng
let site_named t name = Hashtbl.find_opt t.name_to_site name
let site_name t site = Netsim.Topology.site_name (Net.topology t.net) site
let cabinet t site = t.cabs.(site)

let neighbor_names t site = List.map (site_name t) (Net.neighbors t.net site)

(* ---- flight recorder ----------------------------------------------------- *)

let recorder t = Net.recorder t.net
let metrics t = Net.metrics t.net

let fresh_id t =
  t.id_counter <- t.id_counter + 1;
  t.id_counter

(* The span context an agent carries rides in the briefcase's system TRACE
   folder, so it survives serialisation and migration like any other state.
   It is only ever written while tracing is on: with the recorder off the
   briefcase (and hence every wire size) is byte-identical. *)
let briefcase_span bc =
  match Briefcase.get bc Briefcase.trace_folder with
  | s -> Obs.Span.parse s
  | exception Not_found -> Obs.Span.null

let set_briefcase_span bc ctx =
  Briefcase.set bc Briefcase.trace_folder (Obs.Span.to_string ctx)

let reason_of_exn = function
  | Agent_error m -> "agent error: " ^ m
  | Aborted m -> "aborted: " ^ m
  | Tscript.Interp.Resource_exhausted -> "resource exhausted"
  | e -> "exception: " ^ Printexc.to_string e

(* label-safe death classification for the kernel.deaths counter *)
let reason_class_of_exn = function
  | Agent_error _ -> "agent-error"
  | Aborted _ -> "aborted"
  | Tscript.Interp.Resource_exhausted -> "resource-exhausted"
  | _ -> "exception"

(* ---- agent registry ------------------------------------------------------ *)

let agent_entry t name =
  match Stbl.find t.agents name with
  | a -> a
  | exception Not_found ->
    let labels = [ ("agent", name) ] in
    let a =
      {
        site_natives = [];
        global_native = None;
        site_scripts = [];
        global_script = None;
        activations = Obs.Metrics.counter_handle (metrics t) ~labels "kernel.activations";
        completions = Obs.Metrics.counter_handle (metrics t) ~labels "kernel.completions";
        profile = None;
      }
    in
    Stbl.add t.agents name a;
    a

(* made on the agent's first script run, so a native agent holds none *)
let profile_of t name a =
  match a.profile with
  | Some p -> p
  | None ->
    let m = metrics t in
    let labels = [ ("agent", name) ] in
    let counter name = Obs.Metrics.counter_handle m ~labels name in
    let hist name = Obs.Metrics.histogram_handle m ~labels name in
    let shared name = Obs.Metrics.counter_handle m name in
    let p =
      {
        runs = counter "interp.runs";
        steps = hist "interp.steps";
        sim_s = hist "interp.sim_s";
        proc_calls = hist "interp.proc_calls";
        proc_depth = hist "interp.proc_depth";
        parse_hits = shared "tscript.parse_cache.hit";
        parse_misses = shared "tscript.parse_cache.miss";
        parse_evictions = shared "tscript.parse_cache.evict";
        expr_hits = shared "tscript.expr_cache.hit";
        expr_misses = shared "tscript.expr_cache.miss";
      }
    in
    a.profile <- Some p;
    p

let rec at_site site = function
  | [] -> None
  | (s, x) :: rest -> if s = site then Some x else at_site site rest

let set_at_site site x l = (site, x) :: List.filter (fun (s, _) -> s <> site) l

let register_native t ?site name fn =
  let a = agent_entry t name in
  match site with
  | None -> a.global_native <- Some fn
  | Some s -> a.site_natives <- set_at_site s fn a.site_natives

let install_script t ?site name ~code =
  let a = agent_entry t name in
  match site with
  | None -> a.global_script <- Some code
  | Some s -> a.site_scripts <- set_at_site s code a.site_scripts

type resolved = Rnative of native | Rscript of string

(* A site-scoped native, then a global native, then a site-scoped script,
   then a global script. *)
let resolve a site =
  match at_site site a.site_natives with
  | Some fn -> Some (Rnative fn)
  | None -> (
    match a.global_native with
    | Some fn -> Some (Rnative fn)
    | None -> (
      match at_site site a.site_scripts with
      | Some code -> Some (Rscript code)
      | None -> Option.map (fun code -> Rscript code) a.global_script))

let agent_exists t site name =
  match Stbl.find_opt t.agents name with
  | None -> false
  | Some a -> Option.is_some (resolve a site)

(* ---- script execution ----------------------------------------------------- *)

let sleep ctx dur = Effect.perform (Sleep_eff (ctx, dur))

let transmit t ~src ~dst ~size payload = Net.send t.net ~src ~dst ~size payload

let send_briefcase t ~src ~dst ~contact bc =
  transmit t ~src ~dst
    ~size:(Briefcase.byte_size bc + migration_overhead)
    (Migration { mid = 0; contact; bc = Briefcase.copy bc; needs_ack = false })

type reply_to = { reply_host : string; reply_agent : string }

let set_reply_to t bc ~site ~agent =
  Briefcase.set bc "REPLY-HOST" (site_name t site);
  Briefcase.set bc "REPLY-AGENT" agent

let reply_to bc =
  match (Briefcase.find_opt bc "REPLY-HOST", Briefcase.find_opt bc "REPLY-AGENT") with
  | Some reply_host, Some reply_agent -> Some { reply_host; reply_agent }
  | _ -> None

let send_back t ~src r bc =
  match site_named t r.reply_host with
  | Some dst ->
    send_briefcase t ~src ~dst ~contact:r.reply_agent bc;
    true
  | None -> false

let no_agent ctx name =
  Agent_error (Printf.sprintf "meet: no agent %S at %s" name (site_name ctx.kernel ctx.site))

(* [meet_inner] is the bare dispatch; [meet] wraps it in a child span so
   nested meets show up as a tree under their activation.  [run_activation]
   calls [run_agent] directly — the activation span already names the
   contact. *)
let rec run_agent ctx name a bc =
  match resolve a ctx.site with
  | None -> raise (no_agent ctx name)
  | Some found -> (
    let ctx = if String.equal ctx.self name then ctx else { ctx with self = name } in
    match found with
    | Rnative fn -> fn ctx bc
    | Rscript code -> run_script ctx a ~code bc)

and meet_inner ctx name bc =
  match Stbl.find ctx.kernel.agents name with
  | a -> run_agent ctx name a bc
  | exception Not_found -> raise (no_agent ctx name)

and meet ctx name bc =
  let t = ctx.kernel in
  Obs.Metrics.bump t.meets 1;
  let tr = recorder t in
  if not (Obs.Tracer.enabled tr) then meet_inner ctx name bc
  else begin
    let span =
      Obs.Tracer.open_span tr Obs.Desc.meet ~time:(now t) ~parent:(briefcase_span bc)
        ~site:ctx.site ~agent:name "" 0
    in
    (* the callee sees itself as the live span; restore the caller's context
       afterwards so sibling meets parent correctly *)
    let saved = Briefcase.find_opt bc Briefcase.trace_folder in
    set_briefcase_span bc span;
    let restore () =
      match saved with
      | Some s -> Briefcase.set bc Briefcase.trace_folder s
      | None -> Briefcase.remove bc Briefcase.trace_folder
    in
    match meet_inner ctx name bc with
    | () ->
      restore ();
      Obs.Tracer.close_span tr Obs.Desc.meet ~time:(now t) ~site:ctx.site ~agent:name span ""
    | exception e ->
      restore ();
      Obs.Tracer.close_span tr Obs.Desc.meet_failed ~time:(now t) ~site:ctx.site ~agent:name
        span (reason_of_exn e);
      raise e
  end

and run_code ctx ~code bc = run_script ctx (agent_entry ctx.kernel ctx.self) ~code bc

(* [a] is the entry of [ctx.self] *)
and run_script ctx a ~code bc =
  let t = ctx.kernel in
  let step_limit =
    match t.step_policy with
    | Some policy -> (
      match policy bc with Some budget -> Some budget | None -> t.cfg.step_limit)
    | None -> t.cfg.step_limit
  in
  let it = Tscript.Interp.create ?step_limit ~caches:t.interp_caches () in
  let host =
    {
      Bindings.site_name = (fun () -> site_name t ctx.site);
      self = (fun () -> ctx.self);
      now = (fun () -> now t);
      neighbors = (fun () -> neighbor_names t ctx.site);
      meet =
        (fun name ->
          try meet ctx name bc
          with Agent_error msg -> raise (Tscript.Interp.Error_exc msg));
      sleep = (fun d -> sleep ctx d);
      log =
        (fun msg ->
          let tr = recorder t in
          if Obs.Tracer.enabled tr then
            Obs.Tracer.instant_strs tr Obs.Desc.agent_log ~time:(now t) ~span:Obs.Span.null
              ~site:ctx.site ~agent:ctx.self msg "" 0 0);
      random_int = (fun n -> Rng.int t.rng n);
      cabinet = cabinet t ctx.site;
      code = (fun () -> code);
      dispatch =
        (fun ~host ~contact ->
          match site_named t host with
          | Some dst -> send_briefcase t ~src:ctx.site ~dst ~contact bc
          | None ->
            raise
              (Tscript.Interp.Error_exc (Printf.sprintf "dispatch: unknown host %S" host)));
    }
  in
  Bindings.install host bc it;
  (match Tscript.Interp.eval it Prelude.standard with
  | Ok _ -> ()
  | Error msg -> raise (Agent_error (Printf.sprintf "prelude: %s" msg)));
  let prof = profile_of t ctx.self a in
  let sim0 = now t in
  (* the interpreter's shape counters feed per-agent histograms; recorded on
     every exit path (including Resource_exhausted and effect aborts) *)
  let observe_profile () =
    Obs.Metrics.bump prof.runs 1;
    Obs.Metrics.record prof.steps (float_of_int (Tscript.Interp.steps_used it));
    Obs.Metrics.record prof.sim_s (now t -. sim0);
    let p = Tscript.Interp.profile it in
    Obs.Metrics.record prof.proc_calls (float_of_int p.Tscript.Interp.proc_calls);
    Obs.Metrics.record prof.proc_depth (float_of_int p.Tscript.Interp.max_depth);
    (* unlabeled cache-effectiveness counters over the shared compile
       caches; [expr_misses] is the compiled-expression count *)
    Obs.Metrics.bump prof.parse_hits p.Tscript.Interp.parse_hits;
    Obs.Metrics.bump prof.parse_misses p.Tscript.Interp.parse_misses;
    Obs.Metrics.bump prof.parse_evictions p.Tscript.Interp.parse_evictions;
    Obs.Metrics.bump prof.expr_hits p.Tscript.Interp.expr_hits;
    Obs.Metrics.bump prof.expr_misses p.Tscript.Interp.expr_misses
  in
  match Tscript.Interp.eval it code with
  | Ok _ -> observe_profile ()
  | Error msg ->
    observe_profile ();
    raise (Agent_error (Printf.sprintf "%s: %s" ctx.self msg))
  | exception e ->
    observe_profile ();
    raise e

(* ---- activations ----------------------------------------------------------- *)

(* The metrics registry is the kernel's only bookkeeping: activations,
   completions and deaths are counted per agent there, and the accessors at
   the end of this file read them back. *)
let run_hooks_death t ~cls ~site ~agent ~reason =
  Obs.Metrics.incr (metrics t) ~labels:[ ("agent", agent); ("class", cls) ] "kernel.deaths";
  (let tr = recorder t in
   if Obs.Tracer.enabled tr then
     Obs.Tracer.instant_strs tr Obs.Desc.kernel_death ~time:(now t) ~span:Obs.Span.null ~site
       ~agent reason cls 0 0);
  List.iter (fun h -> h ~site ~agent ~reason) t.death_hooks

let rec run_complete_hooks ~site ~agent = function
  | [] -> ()
  | h :: rest ->
    h ~site ~agent;
    run_complete_hooks ~site ~agent rest

(* One activation: what its body needs and nothing more.  The body does its
   own completion and death accounting, so the effect handlers around it
   hold no per-activation state and are built once, for every kernel. *)
type activation = {
  act_ctx : ctx;
  act_agent : agent;
  act_bc : Briefcase.t;
  act_span : Obs.Span.ctx;
}

(* A hook that raises does so inside the activation's fiber; the handlers'
   [exnc] re-raises it, so it escapes the activation's event. *)
let activation_body act =
  let ctx = act.act_ctx in
  let t = ctx.kernel and site = ctx.site and contact = ctx.self in
  let tr = recorder t in
  match run_agent ctx contact act.act_agent act.act_bc with
  | () ->
    if Obs.Tracer.enabled tr then
      Obs.Tracer.close_span tr Obs.Desc.activate ~time:(now t) ~site ~agent:contact act.act_span
        "";
    Obs.Metrics.bump act.act_agent.completions 1;
    run_complete_hooks ~site ~agent:contact t.complete_hooks
  | exception e ->
    if Obs.Tracer.enabled tr then
      Obs.Tracer.close_span tr Obs.Desc.activate_failed ~time:(now t) ~site ~agent:contact
        act.act_span (reason_of_exn e);
    run_hooks_death t ~cls:(reason_class_of_exn e) ~site ~agent:contact
      ~reason:(reason_of_exn e)

(* The timer that ends a sleep acts only under the place the activation
   slept in: once the site has crashed, the activation dies instead. *)
let wake t site place k () =
  if t.places.(site) == place then Effect.Deep.continue k ()
  else Effect.Deep.discontinue k (Aborted "site crashed")

(* The two handlers an activation runs under: a work activation's sleeps
   keep [Net.run] alive, a daemon's do not.  [daemon] is the option
   [Net.schedule] takes, made once here rather than on every sleep. *)
let activation_handler daemon : (unit, unit) Effect.Deep.handler =
  {
    retc = Fun.id;
    exnc = raise;
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Sleep_eff (ctx, dur) ->
          Some
            (fun (k : (b, unit) Effect.Deep.continuation) ->
              let t = ctx.kernel and site = ctx.site in
              ignore (Net.schedule t.net ?daemon ~after:dur (wake t site t.places.(site) k)))
        | _ -> None);
  }

let work_handler = activation_handler None
let daemon_handler = activation_handler (Some true)

let run_activation ?(daemon = false) t ~site ~contact bc =
  let agent = agent_entry t contact in
  Obs.Metrics.bump agent.activations 1;
  let ctx = { kernel = t; site; self = contact } in
  let tr = recorder t in
  (* the activation span parents to whatever span dispatched this briefcase
     (carried in its TRACE folder across the wire), stitching the hops of a
     journey — and of a guard relaunch — into one causal tree *)
  let span =
    if not (Obs.Tracer.enabled tr) then Obs.Span.null
    else begin
      let span =
        Obs.Tracer.open_span tr Obs.Desc.activate ~time:(now t) ~parent:(briefcase_span bc) ~site
          ~agent:contact "" 0
      in
      set_briefcase_span bc span;
      span
    end
  in
  Effect.Deep.match_with activation_body
    { act_ctx = ctx; act_agent = agent; act_bc = bc; act_span = span }
    (if daemon then daemon_handler else work_handler)

let launch ?daemon t ~site ~contact bc =
  ignore
    (Net.schedule t.net ?daemon ~after:0.0 (fun () ->
         if Net.site_up t.net site then run_activation ?daemon t ~site ~contact bc))

(* ---- content-addressed code cache (see Codecache) --------------------------- *)

let code_cache t site = t.places.(site).cache

(* Wire contribution of one briefcase folder: encoded name + element list. *)
let folder_wire_bytes name elems = Codec.encoded_size name + Codecache.wire_bytes elems

(* The snapshot a migration ships.  With the cache on, the sender replaces
   the CODE payload with its digest and publishes the entry in this site's
   cache, which also serves fallback fetches; a warm hop reuses the digest
   this site just resolved instead of hashing.  CODE ships in full when the
   cache is off, CODE is empty, or the entry alone exceeds the budget (then
   nobody could ever resolve it). *)
let wire_snapshot t place bc =
  let snap = Briefcase.copy bc in
  (match place.cache with
   | None -> ()
   | Some cache -> (
     match Briefcase.folder_opt snap Briefcase.code_folder with
     | Some f when not (Folder.is_empty f) ->
       let elems = Folder.to_list f in
       let dg = Codecache.digest_at cache elems in
       if Codecache.insert cache ~digest:dg elems then begin
         Briefcase.remove snap Briefcase.code_folder;
         Briefcase.set snap Briefcase.code_ref_folder dg;
         Obs.Metrics.bump t.cache_saved
           (folder_wire_bytes Briefcase.code_folder elems
           - folder_wire_bytes Briefcase.code_ref_folder [ dg ])
       end
     | Some _ | None -> ()));
  snap

let end_fetch_span t pf ?error () =
  let tr = recorder t in
  if Obs.Tracer.enabled tr then
    match error with
    | None ->
      Obs.Tracer.close_span tr Obs.Desc.fetch_done ~time:(now t) ~site:pf.pf_site
        ~agent:pf.pf_contact pf.pf_span ""
    | Some e ->
      Obs.Tracer.close_span tr Obs.Desc.fetch_failed ~time:(now t) ~site:pf.pf_site
        ~agent:pf.pf_contact pf.pf_span e

(* Receiver side, miss path: hold the activation, ask the sending site for
   the code (one extra round trip, byte-accounted like any message), and
   give up after the configured timeout — the loss then shows up as a
   death of class ["code-fetch"], which rear guards recover like any other
   lost hop. *)
let begin_fetch t place ~site ~src ~contact ~digest ~ccfg bc =
  let fid = t.fetch_counter in
  t.fetch_counter <- fid + 1;
  let tr = recorder t in
  let span =
    if not (Obs.Tracer.enabled tr) then Obs.Span.null
    else
      Obs.Tracer.open_span tr Obs.Desc.fetch ~time:(now t) ~parent:(briefcase_span bc) ~site
        ~agent:contact digest src
  in
  let pf =
    {
      pf_site = site;
      pf_contact = contact;
      pf_bc = bc;
      pf_digest = digest;
      pf_span = span;
      pf_timer = None;
      pf_attempts = 1;
    }
  in
  place.fetches <- Imap.add fid pf place.fetches;
  Obs.Metrics.incr (metrics t) "codecache.fetches";
  let send_request () =
    Obs.Metrics.bump t.cache_saved (-Codecache.request_bytes);
    transmit t ~src:site ~dst:src ~size:Codecache.request_bytes (Code_fetch { fid; digest })
  in
  send_request ();
  let rec arm () =
    pf.pf_timer <-
      Some
        (Net.schedule t.net ~after:ccfg.fetch_timeout (fun () ->
             if t.places.(site) == place then begin
               if pf.pf_attempts < Codecache.fetch_attempts then begin
                 (* bounded retry: the request or reply may have been lost to
                    a partition or loss burst rather than a dead source *)
                 pf.pf_attempts <- pf.pf_attempts + 1;
                 Obs.Metrics.incr (metrics t) "codecache.fetch_retries";
                 send_request ();
                 arm ()
               end
               else begin
                 place.fetches <- Imap.remove fid place.fetches;
                 Obs.Metrics.incr (metrics t) "codecache.fetch_failures";
                 end_fetch_span t pf ~error:"timeout" ();
                 run_hooks_death t ~cls:"code-fetch" ~site ~agent:contact
                   ~reason:
                     (Printf.sprintf "code fetch timed out (digest %s)"
                        (String.sub digest 0 (min 12 (String.length digest))))
               end
             end))
  in
  arm ()

(* Every migration lands here with its own copy of the snapshot: resolve a
   code reference against this place's cache, or fall back to a fetch. *)
let accept_briefcase t ~site ~src ~contact bc =
  match Briefcase.find_opt bc Briefcase.code_ref_folder with
  | None -> run_activation t ~site ~contact bc
  | Some dg -> (
    Briefcase.remove bc Briefcase.code_ref_folder;
    let place = t.places.(site) in
    match (place.cache, t.cfg.cache) with
    | Some cache, Some ccfg -> (
      match Codecache.find_opt cache ~digest:dg with
      | Some elems ->
        Obs.Metrics.incr (metrics t) "codecache.hits";
        Folder.replace (Briefcase.folder bc Briefcase.code_folder) elems;
        run_activation t ~site ~contact bc
      | None ->
        Obs.Metrics.incr (metrics t) "codecache.misses";
        begin_fetch t place ~site ~src ~contact ~digest:dg ~ccfg bc)
    | _ ->
      (* a reference arrived at a kernel without a cache: nothing can
         resolve it, which is a configuration error, not data *)
      run_hooks_death t ~cls:"code-fetch" ~site ~agent:contact
        ~reason:"briefcase carries a code reference but no cache is configured")

(* ---- migration -------------------------------------------------------------- *)

(* [place] is the sender's place the migration left under: once the sender
   crashes, nothing of the migration is sent again *)
let rec horus_retry t place st mid =
  (* abort early when the kernel group's view already excludes the target *)
  let believed_dead =
    match t.group with
    | None -> false
    | Some g -> (
      match Horus.Group.view_at g st.ack_src with
      | Some v -> not (Horus.View.mem v st.ack_dst)
      | None -> false)
  in
  if st.attempts >= t.cfg.horus.max_attempts || believed_dead then begin
    place.acks <- Imap.remove mid place.acks;
    Obs.Metrics.incr (metrics t) "horus.giveups";
    let tr = recorder t in
    if Obs.Tracer.enabled tr then
      Obs.Tracer.instant_ints tr Obs.Desc.horus_giveup ~time:(now t) ~site:st.ack_src st.ack_dst
        st.attempts 0
  end
  else begin
    st.attempts <- st.attempts + 1;
    if st.attempts > 1 then Obs.Metrics.incr (metrics t) "horus.retransmits";
    transmit t ~src:st.ack_src ~dst:st.ack_dst ~size:st.ack_size st.ack_payload;
    st.ack_timer <-
      Some
        (Net.schedule t.net ~after:(t.cfg.horus.rto *. float_of_int st.attempts) (fun () ->
             if t.places.(st.ack_src) == place && Imap.mem mid place.acks then
               horus_retry t place st mid))
  end

let migrate t ~src ~dst ~contact ~transport bc =
  Obs.Metrics.incr (metrics t)
    ~labels:[ ("transport", transport_name transport) ]
    "kernel.migrations";
  let place = t.places.(src) in
  let snap = wire_snapshot t place bc in
  let base = Briefcase.byte_size snap + migration_overhead in
  (let tr = recorder t in
   if Obs.Tracer.enabled tr then
     Obs.Tracer.instant_strs tr (migrate_event transport) ~time:(now t)
       ~span:(briefcase_span bc) ~site:src ~agent:contact (site_name t src) (site_name t dst) dst
       base);
  match transport with
  | Rsh ->
    (* a fresh interpreter is spawned remotely before the agent can move *)
    ignore
      (Net.schedule t.net ~after:rsh_spawn_delay (fun () ->
           if t.places.(src) == place then
             transmit t ~src ~dst
               ~size:(base + rsh_extra_bytes)
               (Migration { mid = 0; contact; bc = snap; needs_ack = false })))
  | Tcp ->
    (* a connection closes when either end crashes *)
    let peer = t.places.(dst) in
    let fresh = not (Imap.mem dst place.peers && Imap.find dst place.peers == peer) in
    if fresh then place.peers <- Imap.add dst peer place.peers;
    let size = base + tcp_extra_bytes + (if fresh then tcp_handshake_bytes else 0) in
    transmit t ~src ~dst ~size (Migration { mid = 0; contact; bc = snap; needs_ack = false })
  | Horus ->
    let mid = t.mid_counter in
    t.mid_counter <- mid + 1;
    let payload = Migration { mid; contact; bc = snap; needs_ack = true } in
    let st =
      {
        attempts = 0;
        ack_src = src;
        ack_dst = dst;
        ack_size = base + horus_extra_bytes;
        ack_payload = payload;
        ack_timer = None;
      }
    in
    place.acks <- Imap.add mid st place.acks;
    horus_retry t place st mid

(* ---- incoming messages ------------------------------------------------------- *)

let seen_mid_window = 4096

let handle_message t site (msg : Netsim.Message.t) =
  let place = t.places.(site) in
  match msg.payload with
  | Migration { mid; contact; bc; needs_ack } ->
    let duplicate = needs_ack && Hashtbl.mem place.seen mid in
    if needs_ack then begin
      (* ack even duplicates: the first ack may have been lost *)
      transmit t ~src:site ~dst:msg.src ~size:horus_ack_bytes (Migration_ack { mid });
      if Hashtbl.length place.seen > seen_mid_window then Hashtbl.reset place.seen;
      Hashtbl.replace place.seen mid ()
    end;
    (* the sender took the snapshot, and a message delivered once hands it
       to the activation; only a retransmittable payload can be delivered
       again (after a restart forgets [seen]), so it is copied per delivery *)
    if not duplicate then
      accept_briefcase t ~site ~src:msg.src ~contact (if needs_ack then Briefcase.copy bc else bc)
  | Migration_ack { mid } -> (
    match Imap.find_opt mid place.acks with
    | Some st ->
      (match st.ack_timer with Some timer -> Engine.cancel timer | None -> ());
      place.acks <- Imap.remove mid place.acks
    | None -> ())
  | Code_fetch { fid; digest } ->
    (* serve from this site's cache; a negative reply still costs framing *)
    let code =
      match place.cache with Some cache -> Codecache.find_opt cache ~digest | None -> None
    in
    let size =
      Codecache.reply_overhead_bytes
      + (match code with Some elems -> Codecache.wire_bytes elems | None -> 0)
    in
    (match code with
    | Some _ -> Obs.Metrics.incr (metrics t) "codecache.fetch_serves"
    | None -> ());
    Obs.Metrics.bump t.cache_saved (-size);
    transmit t ~src:site ~dst:msg.src ~size (Code_fetch_reply { fid; code })
  | Code_fetch_reply { fid; code } -> (
    match Imap.find_opt fid place.fetches with
    | None -> () (* already timed out, or the site crashed meanwhile *)
    | Some pf -> (
      place.fetches <- Imap.remove fid place.fetches;
      (match pf.pf_timer with Some timer -> Engine.cancel timer | None -> ());
      match code with
      | Some elems ->
        let install cache = ignore (Codecache.insert cache ~digest:pf.pf_digest elems) in
        Option.iter install place.cache;
        Folder.replace (Briefcase.folder pf.pf_bc Briefcase.code_folder) elems;
        end_fetch_span t pf ();
        run_activation t ~site ~contact:pf.pf_contact pf.pf_bc
      | None ->
        Obs.Metrics.incr (metrics t) "codecache.fetch_failures";
        end_fetch_span t pf ~error:"not-found" ();
        run_hooks_death t ~cls:"code-fetch" ~site ~agent:pf.pf_contact
          ~reason:"code fetch failed: source no longer holds the entry"))
  | _ -> ()

(* ---- system agents (paper §2 and §6) ------------------------------------------ *)

let get_folder_exn bc name what =
  match Briefcase.find_opt bc name with
  | Some v -> v
  | None -> raise (Agent_error (Printf.sprintf "%s: missing %s folder" what name))

let rexec_agent ctx bc =
  let t = ctx.kernel in
  let host = get_folder_exn bc Briefcase.host_folder "rexec" in
  let contact = get_folder_exn bc Briefcase.contact_folder "rexec" in
  let dst =
    match site_named t host with
    | Some s -> s
    | None -> raise (Agent_error (Printf.sprintf "rexec: unknown host %S" host))
  in
  let transport =
    match Briefcase.find_opt bc "TRANSPORT" with
    | None -> t.cfg.default_transport
    | Some s -> (
      match transport_of_string s with
      | Some tr -> tr
      | None -> raise (Agent_error (Printf.sprintf "rexec: unknown transport %S" s)))
  in
  migrate t ~src:ctx.site ~dst ~contact ~transport bc

let ag_script_agent ctx bc =
  match Folder.pop (Briefcase.folder bc Briefcase.code_folder) with
  | Some code -> run_code ctx ~code bc
  | None -> raise (Agent_error "ag_script: empty CODE folder")

let ag_shell_agent ctx bc =
  (* drain CODE, executing each element in order, like a shell session *)
  let folder = Briefcase.folder bc Briefcase.code_folder in
  let rec go () =
    match Folder.pop folder with
    | None -> ()
    | Some code ->
      run_code ctx ~code bc;
      go ()
  in
  go ()

let courier_agent ctx bc =
  let t = ctx.kernel in
  let host = get_folder_exn bc Briefcase.host_folder "courier" in
  let contact = get_folder_exn bc Briefcase.contact_folder "courier" in
  let fname = get_folder_exn bc "FOLDER" "courier" in
  let dst =
    match site_named t host with
    | Some s -> s
    | None -> raise (Agent_error (Printf.sprintf "courier: unknown host %S" host))
  in
  let out = Briefcase.create () in
  Folder.replace (Briefcase.folder out fname) (Folder.to_list (Briefcase.folder bc fname));
  Briefcase.set out "FOLDER" fname;
  Briefcase.set out "FROM" (site_name t ctx.site);
  send_briefcase t ~src:ctx.site ~dst ~contact out

let diffusion_agent ctx bc =
  let t = ctx.kernel in
  let contact = get_folder_exn bc Briefcase.contact_folder "diffusion" in
  (* §2's flooding refinement: record the visit in a site-local folder and
     terminate instead of re-executing when clones arrive over two paths of
     a cyclic graph.  The tag defaults to the contact name so independent
     diffusions do not block each other. *)
  let tag = Option.value ~default:contact (Briefcase.find_opt bc "DIFFUSION-ID") in
  let cab = cabinet t ctx.site in
  if not (Cabinet.contains cab "DIFFUSED" tag) then begin
    Cabinet.put cab "DIFFUSED" tag;
    (* execute the specified agent locally *)
    meet ctx contact bc;
    let here = site_name t ctx.site in
    let visited = Briefcase.folder bc Briefcase.sites_folder in
    if not (Folder.contains visited here) then Folder.enqueue visited here;
    (* clone to the set difference of the site-local SITES folder and the
       briefcase SITES folder (paper §2) *)
    let local_sites = Cabinet.elements (cabinet t ctx.site) Briefcase.sites_folder in
    let targets = List.filter (fun s -> not (Folder.contains visited s)) local_sites in
    (* pre-mark all targets so sibling clones do not re-flood each other *)
    List.iter (fun s -> Folder.enqueue visited s) targets;
    let transport =
      match Option.bind (Briefcase.find_opt bc "TRANSPORT") transport_of_string with
      | Some tr -> tr
      | None -> t.cfg.default_transport
    in
    List.iter
      (fun sname ->
        match site_named t sname with
        | Some dst ->
          migrate t ~src:ctx.site ~dst ~contact:"diffusion" ~transport bc
        | None -> ())
      targets
  end

let filer_agent ctx bc =
  (* deposit every folder's elements into same-named cabinet folders; the
     standard recipient for courier transfers and agent mail *)
  let cab = cabinet ctx.kernel ctx.site in
  List.iter
    (fun name ->
      if name <> "FOLDER" && name <> "FROM" && name <> Briefcase.contact_folder
         && name <> Briefcase.host_folder && name <> Briefcase.trace_folder then
        Folder.iter (fun e -> Cabinet.put cab name e) (Briefcase.folder bc name))
    (Briefcase.names bc)

let install_system_agents t =
  register_native t "rexec" rexec_agent;
  register_native t "ag_script" ag_script_agent;
  register_native t "ag_shell" ag_shell_agent;
  register_native t "courier" courier_agent;
  register_native t "diffusion" diffusion_agent;
  register_native t "filer" filer_agent;
  register_native t "noop" (fun _ _ -> ())

(* ---- place lifecycle ------------------------------------------------------------ *)

let seed_sites_folder t site =
  Cabinet.replace (cabinet t site) Briefcase.sites_folder (neighbor_names t site)

let arm_site t site = Net.set_handler t.net site ~key:"tacoma" (handle_message t site)

let empty_place (cfg : config) metrics =
  let on_evict ~digest:_ ~bytes:_ = Obs.Metrics.incr metrics "codecache.evictions" in
  {
    cache = Option.map (Codecache.create ~on_evict) cfg.cache;
    peers = Imap.empty;
    acks = Imap.empty;
    fetches = Imap.empty;
    seen = Hashtbl.create 32;
  }

let create ?(config = default_config) net =
  let topo = Net.topology net in
  let n = Netsim.Topology.site_count topo in
  let t =
    {
      net;
      cfg = config;
      places = Array.init n (fun _ -> empty_place config (Net.metrics net));
      cabs = Array.init n (fun _ -> Cabinet.create ());
      interp_caches = Tscript.Interp.create_caches ();
      fetch_counter = 1;
      cache_saved = Obs.Metrics.counter_handle (Net.metrics net) "codecache.bytes_saved";
      agents = Stbl.create 64;
      meets = Obs.Metrics.counter_handle (Net.metrics net) "kernel.meets";
      name_to_site = Hashtbl.create n;
      mid_counter = 1;
      id_counter = 0;
      rng = Rng.split (Net.rng net);
      death_hooks = [];
      complete_hooks = [];
      group = None;
      step_policy = None;
    }
  in
  List.iter
    (fun site -> Hashtbl.replace t.name_to_site (Netsim.Topology.site_name topo site) site)
    (Netsim.Topology.sites topo);
  install_system_agents t;
  List.iter
    (fun site ->
      arm_site t site;
      seed_sites_folder t site;
      Net.on_crash net site (fun () ->
          (* The site's volatile state dies with it.  The place is swapped
             now, not at the restart, so a TCP connection opened to the site
             while it is down stays open after the restart.  Pending fetches
             end in fid order. *)
          let dead = t.places.(site) in
          t.places.(site) <- empty_place t.cfg (metrics t);
          Imap.iter (fun _ pf -> end_fetch_span t pf ~error:"site-crash" ()) dead.fetches);
      Net.on_restart net site (fun () ->
          t.cabs.(site) <- Cabinet.recover t.cabs.(site);
          seed_sites_folder t site;
          arm_site t site;
          match t.group with Some g -> Horus.Group.rejoin g site | None -> ()))
    (Netsim.Topology.sites topo);
  if config.horus.group then
    t.group <- Some (Horus.Group.create net ~name:"tacoma" ~members:(Netsim.Topology.sites topo));
  t

(* ---- stats ------------------------------------------------------------------------ *)

let cache_saved_bytes t = Obs.Metrics.counter (metrics t) "codecache.bytes_saved"
let migrations t = Obs.Metrics.counter_total (metrics t) "kernel.migrations"
let activations t = Obs.Metrics.counter_total (metrics t) "kernel.activations"
let deaths t = Obs.Metrics.counter_total (metrics t) "kernel.deaths"
let completions t = Obs.Metrics.counter_total (metrics t) "kernel.completions"

type agent_activity = { a_activations : int; a_completions : int; a_deaths : int }

let activity t =
  let by_agent = Stbl.create 64 in
  let bump agent f =
    let a =
      Option.value (Stbl.find_opt by_agent agent)
        ~default:{ a_activations = 0; a_completions = 0; a_deaths = 0 }
    in
    Stbl.replace by_agent agent (f a)
  in
  Obs.Metrics.fold
    (fun ~name ~labels v () ->
      match (v, List.assoc_opt "agent" labels) with
      | Obs.Metrics.Counter n, Some agent -> (
        match name with
        | "kernel.activations" ->
          bump agent (fun a -> { a with a_activations = a.a_activations + n })
        | "kernel.completions" ->
          bump agent (fun a -> { a with a_completions = a.a_completions + n })
        | "kernel.deaths" -> bump agent (fun a -> { a with a_deaths = a.a_deaths + n })
        | _ -> ())
      | _ -> ())
    (metrics t) ();
  Stbl.fold (fun agent a acc -> (agent, a) :: acc) by_agent [] |> List.sort compare

let set_step_policy t p = t.step_policy <- p
(* hooks are kept in registration order, the order they run in *)
let on_death t h = t.death_hooks <- t.death_hooks @ [ h ]
let on_complete t h = t.complete_hooks <- t.complete_hooks @ [ h ]
let horus_group t = t.group
