(** The traditional architecture the paper argues against (§1): "a client at
    one site that communicates with servers at other sites", where "raw data
    may have to be sent from one site to another" because the client gets
    its cycles at a different site than its data.

    A server exposes a named service function; a client calls it and gets
    the full result rows on the wire.  Request/response sizes are charged to
    the network exactly like agent traffic, so the two architectures are
    directly comparable in E1/E8. *)

val serve :
  Netsim.Net.t ->
  site:Netsim.Site.id ->
  service:string ->
  (query:string -> string list) ->
  unit
(** Install a service handler.  Several services can share a site. *)

type client
(** A calling endpoint at one site.  Request ids and the pending-reply
    table live in the handle — deliberately not module-global, so
    simulations running concurrently on a {!Tacoma_util.Pool} never share
    call state.  One client per (net, site): creating a second replaces
    the first's reply handler. *)

val client : Netsim.Net.t -> src:Netsim.Site.id -> client

val call :
  client ->
  dst:Netsim.Site.id ->
  service:string ->
  query:string ->
  on_reply:(string list -> unit) ->
  unit
(** Fire a request; [on_reply] runs when the response lands.  Lost requests
    or responses (site down, partition) simply never reply — clients needing
    timeouts arm their own. *)

val request_overhead : int
val response_overhead : int
