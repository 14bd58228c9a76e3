module Net = Netsim.Net
module Engine = Netsim.Engine
module Rng = Tacoma_util.Rng
module Stbl = Hashtbl.Make (String)

type transport = Rsh | Tcp | Horus

let transport_of_string s =
  match String.lowercase_ascii s with
  | "rsh" -> Some Rsh
  | "tcp" -> Some Tcp
  | "horus" -> Some Horus
  | _ -> None

let transport_name = function Rsh -> "rsh" | Tcp -> "tcp" | Horus -> "horus"

type rsh_config = { spawn_delay : float; extra_bytes : int }
type tcp_config = { handshake_bytes : int; extra_bytes : int }

type horus_config = {
  extra_bytes : int;
  ack_bytes : int;
  rto : float;
  max_attempts : int;
  group : bool;
}

type cache_config = Codecache.config = {
  budget_bytes : int;
  request_bytes : int;
  reply_overhead_bytes : int;
  fetch_timeout : float;
  fetch_attempts : int;
}

type config = {
  default_transport : transport;
  step_limit : int option;
  migration_overhead : int;
  rsh : rsh_config;
  tcp : tcp_config;
  horus : horus_config;
  cache : cache_config option;
}

(* The rsh numbers model spawning a fresh interpreter per hop (fork/exec +
   login) as the first TACOMA prototype did; tcp models a cached connection
   with a 3-way handshake on first use; horus adds acks and retransmission. *)
let default_rsh_config = { spawn_delay = 0.25; extra_bytes = 1024 }
let default_tcp_config = { handshake_bytes = 192; extra_bytes = 64 }

let default_horus_config =
  { extra_bytes = 256; ack_bytes = 64; rto = 1.0; max_attempts = 5; group = false }

let default_cache_config = Codecache.default_config

let default_config =
  {
    default_transport = Tcp;
    step_limit = Some 2_000_000;
    migration_overhead = 128;
    rsh = default_rsh_config;
    tcp = default_tcp_config;
    horus = default_horus_config;
    cache = None;
  }

exception Agent_error of string
exception Aborted of string

type place = { mutable epoch : int; mutable cab : Cabinet.t }

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
  pf_epoch : int;
  pf_contact : string;
  pf_bc : Briefcase.t;
  pf_digest : string;
  pf_span : Obs.Span.ctx;
  mutable pf_timer : Engine.timer option;
  mutable pf_attempts : int;
}

type t = {
  net : Net.t;
  cfg : config;
  places : place array;
  caches : Codecache.t array; (* empty unless cfg.cache = Some _ *)
  interp_caches : Tscript.Interp.caches;
      (* compile caches shared by every per-activation interpreter: an
         agent's script and loop expressions are compiled once per
         simulation, not once per activation *)
  pending_fetches : (int, pending_fetch) Hashtbl.t;
  mutable fetch_counter : int;
  cache_saved : Obs.Metrics.counter_handle;
      (* net wire bytes the code cache has avoided: bytes stripped from
         migrations, minus everything the fallback fetch protocol cost *)
  agents : agent Stbl.t;
  meets : Obs.Metrics.counter_handle;
  name_to_site : (string, int) Hashtbl.t;
  connections : (int * int, unit) Hashtbl.t;
  pending_acks : (int, ack_state) Hashtbl.t;
  mutable mid_counter : int;
  mutable id_counter : int;
  rng : Rng.t;
  mutable death_hooks : (site:Netsim.Site.id -> agent:string -> reason:string -> unit) list;
  mutable complete_hooks : (site:Netsim.Site.id -> agent:string -> unit) list;
  mutable group : Horus.Group.t option;
  mutable step_policy : (Briefcase.t -> int option) option;
}

(* Everything installed under one agent name, looked up once per delivery:
   the site-scoped and global implementations, and handles on the name's
   activation and completion counters (which register on first use). *)
and agent = {
  name : string;
  mutable site_natives : (Netsim.Site.id * native) list;
  mutable global_native : native option;
  mutable site_scripts : (Netsim.Site.id * string) list;
  mutable global_script : string option;
  activations : Obs.Metrics.counter_handle;
  completions : Obs.Metrics.counter_handle;
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

type _ Effect.t += Sleep_eff : float -> unit Effect.t

let net t = t.net
let config t = t.cfg
let now t = Net.now t.net
let rng t = t.rng
let site_named t name = Hashtbl.find_opt t.name_to_site name
let site_name t site = Netsim.Topology.site_name (Net.topology t.net) site
let cabinet t site = t.places.(site).cab

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
  Option.bind (Briefcase.find_opt bc Briefcase.trace_folder) Obs.Span.of_string

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
  match Stbl.find_opt t.agents name with
  | Some a -> a
  | None ->
    let labels = [ ("agent", name) ] in
    let a =
      {
        name;
        site_natives = [];
        global_native = None;
        site_scripts = [];
        global_script = None;
        activations = Obs.Metrics.counter_handle (metrics t) ~labels "kernel.activations";
        completions = Obs.Metrics.counter_handle (metrics t) ~labels "kernel.completions";
      }
    in
    Stbl.add t.agents name a;
    a

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

let sleep (_ : ctx) dur = Effect.perform (Sleep_eff dur)

let transmit t ~src ~dst ~size payload = Net.send t.net ~src ~dst ~size payload

let send_briefcase t ~src ~dst ~contact bc =
  transmit t ~src ~dst
    ~size:(Briefcase.byte_size bc + t.cfg.migration_overhead)
    (Migration { mid = 0; contact; bc = Briefcase.copy bc; needs_ack = false })

let no_agent ctx name =
  Agent_error (Printf.sprintf "meet: no agent %S at %s" name (site_name ctx.kernel ctx.site))

(* [meet_inner] is the bare dispatch; [meet] wraps it in a child span so
   nested meets show up as a tree under their activation.  [run_activation]
   calls [run_agent] directly — the activation span already names the
   contact. *)
let rec run_agent ctx a bc =
  match resolve a ctx.site with
  | None -> raise (no_agent ctx a.name)
  | Some (Rnative fn) -> fn { ctx with self = a.name } bc
  | Some (Rscript code) -> run_code { ctx with self = a.name } ~code bc

and meet_inner ctx name bc =
  match Stbl.find_opt ctx.kernel.agents name with
  | Some a -> run_agent ctx a bc
  | None -> raise (no_agent ctx name)

and meet ctx name bc =
  let t = ctx.kernel in
  Obs.Metrics.bump t.meets 1;
  let tr = recorder t in
  if not (Obs.Tracer.enabled tr) then meet_inner ctx name bc
  else begin
    let span_name = "meet:" ^ name in
    let span =
      Obs.Tracer.start_span tr ~time:(now t) ?parent:(briefcase_span bc) ~site:ctx.site
        ~agent:name span_name
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
      Obs.Tracer.end_span tr ~time:(now t) ~site:ctx.site ~agent:name span span_name
    | exception e ->
      restore ();
      Obs.Tracer.end_span tr ~time:(now t) ~site:ctx.site ~agent:name
        ~attrs:[ ("error", Obs.Event.S (reason_of_exn e)) ]
        span span_name;
      raise e
  end

and run_code ctx ~code bc =
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
            Obs.Tracer.instant tr ~time:(now t) ~cat:"kernel" ~site:ctx.site ~agent:ctx.self
              ~msg "agent.log");
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
  let sim0 = now t in
  let wall0 = Sys.time () in
  (* the interpreter's shape counters feed per-agent histograms; recorded on
     every exit path (including Resource_exhausted and effect aborts) *)
  let observe_profile () =
    let m = metrics t in
    let labels = [ ("agent", ctx.self) ] in
    Obs.Metrics.incr m ~labels "interp.runs";
    Obs.Metrics.observe m ~labels "interp.steps" (float_of_int (Tscript.Interp.steps_used it));
    Obs.Metrics.observe m ~labels "interp.sim_s" (now t -. sim0);
    Obs.Metrics.observe m ~labels "interp.wall_s" (Sys.time () -. wall0);
    let p = Tscript.Interp.profile it in
    Obs.Metrics.observe m ~labels "interp.proc_calls" (float_of_int p.Tscript.Interp.proc_calls);
    Obs.Metrics.observe m ~labels "interp.proc_depth" (float_of_int p.Tscript.Interp.max_depth);
    (* unlabeled cache-effectiveness counters over the shared compile
       caches; [expr_misses] is the compiled-expression count *)
    Obs.Metrics.incr m ~by:p.Tscript.Interp.parse_hits "tscript.parse_cache.hit";
    Obs.Metrics.incr m ~by:p.Tscript.Interp.parse_misses "tscript.parse_cache.miss";
    Obs.Metrics.incr m ~by:p.Tscript.Interp.parse_evictions "tscript.parse_cache.evict";
    Obs.Metrics.incr m ~by:p.Tscript.Interp.expr_hits "tscript.expr_cache.hit";
    Obs.Metrics.incr m ~by:p.Tscript.Interp.expr_misses "tscript.expr_cache.miss"
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
     Obs.Tracer.instant tr ~time:(now t) ~cat:"kernel" ~site ~agent ~msg:reason
       ~attrs:[ ("class", Obs.Event.S cls) ]
       "kernel.death");
  List.iter (fun h -> h ~site ~agent ~reason) t.death_hooks

let run_activation ?daemon t ~site ~contact bc =
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
        Obs.Tracer.start_span tr ~time:(now t) ?parent:(briefcase_span bc) ~site ~agent:contact
          ("activate:" ^ contact)
      in
      set_briefcase_span bc span;
      span
    end
  in
  let open Effect.Deep in
  match_with
    (fun () -> run_agent ctx agent bc)
    ()
    {
      retc =
        (fun () ->
          if Obs.Tracer.enabled tr then
            Obs.Tracer.end_span tr ~time:(now t) ~site ~agent:contact span
              ("activate:" ^ contact);
          Obs.Metrics.bump agent.completions 1;
          List.iter (fun h -> h ~site ~agent:contact) t.complete_hooks);
      exnc =
        (fun e ->
          if Obs.Tracer.enabled tr then
            Obs.Tracer.end_span tr ~time:(now t) ~site ~agent:contact
              ~attrs:[ ("error", Obs.Event.S (reason_of_exn e)) ]
              span ("activate:" ^ contact);
          run_hooks_death t ~cls:(reason_class_of_exn e) ~site ~agent:contact
            ~reason:(reason_of_exn e));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Sleep_eff dur ->
            Some
              (fun (k : (b, unit) continuation) ->
                let epoch = t.places.(site).epoch in
                ignore
                  (Net.schedule t.net ?daemon ~after:dur (fun () ->
                       if Net.site_up t.net site && t.places.(site).epoch = epoch then
                         continue k ()
                       else discontinue k (Aborted "site crashed"))))
          | _ -> None);
    }

let launch ?daemon t ~site ~contact bc =
  ignore
    (Net.schedule t.net ?daemon ~after:0.0 (fun () ->
         if Net.site_up t.net site then run_activation ?daemon t ~site ~contact bc))

(* ---- migration -------------------------------------------------------------- *)


let rec horus_retry t st mid =
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
    Hashtbl.remove t.pending_acks mid;
    Obs.Metrics.incr (metrics t) "horus.giveups";
    let tr = recorder t in
    if Obs.Tracer.enabled tr then
      Obs.Tracer.instant tr ~time:(now t) ~cat:"kernel" ~site:st.ack_src
        ~attrs:[ ("dst", Obs.Event.I st.ack_dst); ("attempts", Obs.Event.I st.attempts) ]
        "horus.giveup"
  end
  else begin
    st.attempts <- st.attempts + 1;
    if st.attempts > 1 then Obs.Metrics.incr (metrics t) "horus.retransmits";
    if Net.site_up t.net st.ack_src then
      transmit t ~src:st.ack_src ~dst:st.ack_dst ~size:st.ack_size st.ack_payload;
    st.ack_timer <-
      Some
        (Net.schedule t.net ~after:(t.cfg.horus.rto *. float_of_int st.attempts) (fun () ->
             if Hashtbl.mem t.pending_acks mid then horus_retry t st mid))
  end

(* ---- content-addressed code cache (see Codecache) --------------------------- *)

let cache_enabled t = Array.length t.caches > 0
let code_cache t site = if cache_enabled t then Some t.caches.(site) else None

(* Wire contribution of one briefcase folder: encoded name + element list. *)
let folder_wire_bytes name elems = Codec.encoded_size name + Codecache.wire_bytes elems

(* The snapshot a migration ships.  With the cache on, the sender replaces
   the CODE payload with its digest and publishes the entry in this site's
   cache, which also serves fallback fetches; a warm hop reuses the digest
   this site just resolved instead of hashing.  CODE ships in full when the
   cache is off, CODE is empty, or the entry alone exceeds the budget (then
   nobody could ever resolve it). *)
let wire_snapshot t ~src bc =
  let snap = Briefcase.copy bc in
  (if cache_enabled t then
     match Briefcase.folder_opt snap Briefcase.code_folder with
     | Some f when not (Folder.is_empty f) ->
       let elems = Folder.to_list f in
       let dg = Codecache.digest_at t.caches.(src) elems in
       if Codecache.insert t.caches.(src) ~digest:dg elems then begin
         Briefcase.remove snap Briefcase.code_folder;
         Briefcase.set snap Briefcase.code_ref_folder dg;
         Obs.Metrics.bump t.cache_saved
           (folder_wire_bytes Briefcase.code_folder elems
           - folder_wire_bytes Briefcase.code_ref_folder [ dg ])
       end
     | Some _ | None -> ());
  snap

let end_fetch_span t pf ?error () =
  let tr = recorder t in
  if Obs.Tracer.enabled tr then
    Obs.Tracer.end_span tr ~time:(now t) ~site:pf.pf_site ~agent:pf.pf_contact
      ?attrs:(Option.map (fun e -> [ ("error", Obs.Event.S e) ]) error)
      pf.pf_span "codecache.fetch"

(* Receiver side, miss path: hold the activation, ask the sending site for
   the code (one extra round trip, byte-accounted like any message), and
   give up after the configured timeout — the loss then shows up as a
   death of class ["code-fetch"], which rear guards recover like any other
   lost hop. *)
let begin_fetch t ~site ~src ~contact ~digest ~ccfg bc =
  let fid = t.fetch_counter in
  t.fetch_counter <- fid + 1;
  let tr = recorder t in
  let span =
    if not (Obs.Tracer.enabled tr) then Obs.Span.null
    else
      Obs.Tracer.start_span tr ~time:(now t) ?parent:(briefcase_span bc) ~site ~agent:contact
        ~attrs:[ ("digest", Obs.Event.S digest); ("src", Obs.Event.I src) ]
        "codecache.fetch"
  in
  let pf =
    {
      pf_site = site;
      pf_epoch = t.places.(site).epoch;
      pf_contact = contact;
      pf_bc = bc;
      pf_digest = digest;
      pf_span = span;
      pf_timer = None;
      pf_attempts = 1;
    }
  in
  Hashtbl.replace t.pending_fetches fid pf;
  Obs.Metrics.incr (metrics t) "codecache.fetches";
  let send_request () =
    Obs.Metrics.bump t.cache_saved (-ccfg.request_bytes);
    transmit t ~src:site ~dst:src ~size:ccfg.request_bytes (Code_fetch { fid; digest })
  in
  send_request ();
  let rec arm () =
    pf.pf_timer <-
      Some
        (Net.schedule t.net ~after:ccfg.fetch_timeout (fun () ->
             if Hashtbl.mem t.pending_fetches fid then begin
               let alive = Net.site_up t.net site && t.places.(site).epoch = pf.pf_epoch in
               if alive && pf.pf_attempts < ccfg.fetch_attempts then begin
                 (* bounded retry: the request or reply may have been lost to
                    a partition or loss burst rather than a dead source *)
                 pf.pf_attempts <- pf.pf_attempts + 1;
                 Obs.Metrics.incr (metrics t) "codecache.fetch_retries";
                 send_request ();
                 arm ()
               end
               else begin
                 Hashtbl.remove t.pending_fetches fid;
                 Obs.Metrics.incr (metrics t) "codecache.fetch_failures";
                 end_fetch_span t pf ~error:"timeout" ();
                 if alive then
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
    match t.cfg.cache with
    | None ->
      (* a reference arrived at a kernel without a cache: nothing can
         resolve it, which is a configuration error, not data *)
      run_hooks_death t ~cls:"code-fetch" ~site ~agent:contact
        ~reason:"briefcase carries a code reference but no cache is configured"
    | Some ccfg -> (
      match Codecache.find_opt t.caches.(site) ~digest:dg with
      | Some elems ->
        Obs.Metrics.incr (metrics t) "codecache.hits";
        Folder.replace (Briefcase.folder bc Briefcase.code_folder) elems;
        run_activation t ~site ~contact bc
      | None ->
        Obs.Metrics.incr (metrics t) "codecache.misses";
        begin_fetch t ~site ~src ~contact ~digest:dg ~ccfg bc))

(* ---- migration -------------------------------------------------------------- *)

let migrate t ~src ~dst ~contact ~transport bc =
  Obs.Metrics.incr (metrics t)
    ~labels:[ ("transport", transport_name transport) ]
    "kernel.migrations";
  let snap = wire_snapshot t ~src bc in
  let base = Briefcase.byte_size snap + t.cfg.migration_overhead in
  (let tr = recorder t in
   if Obs.Tracer.enabled tr then
     Obs.Tracer.instant tr ~time:(now t) ?span:(briefcase_span bc) ~cat:"kernel" ~site:src
       ~agent:contact
       ~msg:
         (Printf.sprintf "rexec %s: %s -> %s contact=%s (%d bytes)" (transport_name transport)
            (site_name t src) (site_name t dst) contact base)
       ~attrs:
         [
           ("dst", Obs.Event.I dst);
           ("transport", Obs.Event.S (transport_name transport));
           ("bytes", Obs.Event.I base);
         ]
       "kernel.migrate");
  match transport with
  | Rsh ->
    (* a fresh interpreter is spawned remotely before the agent can move *)
    ignore
      (Net.schedule t.net ~after:t.cfg.rsh.spawn_delay (fun () ->
           if Net.site_up t.net src then
             transmit t ~src ~dst
               ~size:(base + t.cfg.rsh.extra_bytes)
               (Migration { mid = 0; contact; bc = snap; needs_ack = false })))
  | Tcp ->
    let fresh = not (Hashtbl.mem t.connections (src, dst)) in
    if fresh then Hashtbl.replace t.connections (src, dst) ();
    let size = base + t.cfg.tcp.extra_bytes + (if fresh then t.cfg.tcp.handshake_bytes else 0) in
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
        ack_size = base + t.cfg.horus.extra_bytes;
        ack_payload = payload;
        ack_timer = None;
      }
    in
    Hashtbl.replace t.pending_acks mid st;
    horus_retry t st mid


(* ---- incoming messages ------------------------------------------------------- *)

let seen_mid_window = 4096

let handle_message t site seen (msg : Netsim.Message.t) =
  match msg.payload with
  | Migration { mid; contact; bc; needs_ack } ->
    let duplicate = needs_ack && Hashtbl.mem seen mid in
    if needs_ack then begin
      (* ack even duplicates: the first ack may have been lost *)
      transmit t ~src:site ~dst:msg.src ~size:t.cfg.horus.ack_bytes (Migration_ack { mid });
      if Hashtbl.length seen > seen_mid_window then Hashtbl.reset seen;
      Hashtbl.replace seen mid ()
    end;
    (* a retransmitted payload may be delivered again (after a restart
       forgets [seen]): every delivery gets its own copy *)
    if not duplicate then accept_briefcase t ~site ~src:msg.src ~contact (Briefcase.copy bc)
  | Migration_ack { mid } -> (
    match Hashtbl.find_opt t.pending_acks mid with
    | Some st ->
      (match st.ack_timer with Some timer -> Engine.cancel timer | None -> ());
      Hashtbl.remove t.pending_acks mid
    | None -> ())
  | Code_fetch { fid; digest } ->
    (* serve from this site's cache; a negative reply still costs framing *)
    let ccfg =
      match t.cfg.cache with Some c -> c | None -> default_cache_config
    in
    let code =
      if cache_enabled t then Codecache.find_opt t.caches.(site) ~digest else None
    in
    let size =
      ccfg.reply_overhead_bytes
      + (match code with Some elems -> Codecache.wire_bytes elems | None -> 0)
    in
    (match code with
    | Some _ -> Obs.Metrics.incr (metrics t) "codecache.fetch_serves"
    | None -> ());
    Obs.Metrics.bump t.cache_saved (-size);
    transmit t ~src:site ~dst:msg.src ~size (Code_fetch_reply { fid; code })
  | Code_fetch_reply { fid; code } -> (
    match Hashtbl.find_opt t.pending_fetches fid with
    | None -> () (* already timed out, or the site crashed meanwhile *)
    | Some pf ->
      Hashtbl.remove t.pending_fetches fid;
      (match pf.pf_timer with Some timer -> Engine.cancel timer | None -> ());
      if t.places.(pf.pf_site).epoch = pf.pf_epoch && Net.site_up t.net pf.pf_site then begin
        match code with
        | Some elems ->
          if cache_enabled t then
            ignore (Codecache.insert t.caches.(pf.pf_site) ~digest:pf.pf_digest elems);
          Folder.replace (Briefcase.folder pf.pf_bc Briefcase.code_folder) elems;
          end_fetch_span t pf ();
          run_activation t ~site:pf.pf_site ~contact:pf.pf_contact pf.pf_bc
        | None ->
          Obs.Metrics.incr (metrics t) "codecache.fetch_failures";
          end_fetch_span t pf ~error:"not-found" ();
          run_hooks_death t ~cls:"code-fetch" ~site:pf.pf_site ~agent:pf.pf_contact
            ~reason:"code fetch failed: source no longer holds the entry"
      end)
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

let arm_site t site =
  let seen = Hashtbl.create 32 in
  Net.set_handler t.net site ~key:"tacoma" (handle_message t site seen)

let create ?(config = default_config) net =
  let topo = Net.topology net in
  let n = Netsim.Topology.site_count topo in
  let caches =
    match config.cache with
    | None -> [||]
    | Some c ->
      let on_evict ~digest:_ ~bytes:_ =
        Obs.Metrics.incr (Net.metrics net) "codecache.evictions"
      in
      Array.init n (fun _ -> Codecache.create ~on_evict c)
  in
  let t =
    {
      net;
      cfg = config;
      places = Array.init n (fun _ -> { epoch = 0; cab = Cabinet.create () });
      caches;
      interp_caches = Tscript.Interp.create_caches ();
      pending_fetches = Hashtbl.create 32;
      fetch_counter = 1;
      cache_saved = Obs.Metrics.counter_handle (Net.metrics net) "codecache.bytes_saved";
      agents = Stbl.create 64;
      meets = Obs.Metrics.counter_handle (Net.metrics net) "kernel.meets";
      name_to_site = Hashtbl.create n;
      connections = Hashtbl.create 32;
      pending_acks = Hashtbl.create 32;
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
          (* volatile kernel state tied to this site dies with it *)
          Hashtbl.iter
            (fun (a, b) () -> if a = site || b = site then Hashtbl.remove t.connections (a, b))
            (Hashtbl.copy t.connections);
          if cache_enabled t then Codecache.clear t.caches.(site);
          Hashtbl.iter
            (fun fid pf ->
              if pf.pf_site = site then begin
                Hashtbl.remove t.pending_fetches fid;
                (match pf.pf_timer with Some timer -> Engine.cancel timer | None -> ());
                end_fetch_span t pf ~error:"site-crash" ()
              end)
            (Hashtbl.copy t.pending_fetches));
      Net.on_restart net site (fun () ->
          let place = t.places.(site) in
          place.epoch <- place.epoch + 1;
          place.cab <- Cabinet.recover place.cab;
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
