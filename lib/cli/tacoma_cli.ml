module Kernel = Tacoma_core.Kernel

(* case-insensitive, through Kernel.transport_of_string *)
let transport_conv =
  let parse s =
    match Kernel.transport_of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown transport %S (expected rsh, tcp or horus)" s))
  in
  let print ppf t = Format.pp_print_string ppf (Kernel.transport_name t) in
  Cmdliner.Arg.conv ~docv:"TRANSPORT" (parse, print)

let transport_term =
  let open Cmdliner in
  Arg.(value
       & opt (some transport_conv) None
       & info [ "transport" ] ~docv:"TRANSPORT"
           ~doc:"Default rexec transport: rsh, tcp or horus.")

type topology_kind = Ring | Line | Star | Mesh | Grid

let topology_conv =
  Cmdliner.Arg.enum
    [ ("ring", Ring); ("line", Line); ("star", Star); ("mesh", Mesh); ("grid", Grid) ]

let build_topology kind n =
  match kind with
  | Ring -> Netsim.Topology.ring n
  | Line -> Netsim.Topology.line n
  | Star -> Netsim.Topology.star n
  | Mesh -> Netsim.Topology.full_mesh n
  | Grid ->
    (* smallest square covering at least n sites (a plain sqrt truncation
       would silently shrink "-n 8" to a 2x2 grid) *)
    let side = max 1 (int_of_float (ceil (sqrt (float_of_int n)))) in
    Netsim.Topology.grid side side

let cache_term =
  let open Cmdliner in
  let enabled =
    Arg.(value & flag
         & info [ "code-cache" ]
             ~doc:"Enable the per-site content-addressed code cache (CODE ships as a digest).")
  in
  let budget =
    Arg.(value
         & opt (some int) None
         & info [ "code-cache-budget" ] ~docv:"BYTES"
             ~doc:"Per-site cache byte budget; implies $(b,--code-cache).")
  in
  let combine enabled budget =
    match (enabled, budget) with
    | false, None -> None
    | _, Some b -> Some { Kernel.default_cache_config with budget_bytes = b }
    | true, None -> Some Kernel.default_cache_config
  in
  Term.(const combine $ enabled $ budget)

let chaos_plan_conv =
  let parse path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Error (`Msg e)
    | contents -> (
      match Netsim.Chaos.of_string contents with
      | Ok plan -> Ok plan
      | Error e -> Error (`Msg (Printf.sprintf "%s: %s" path e)))
  in
  let print ppf plan =
    Format.fprintf ppf "<%d chaos events>" (List.length plan)
  in
  Cmdliner.Arg.conv ~docv:"PLAN" (parse, print)

let apply_config ?transport ?cache (base : Kernel.config) =
  let base =
    match transport with None -> base | Some t -> { base with default_transport = t }
  in
  match cache with None -> base | Some c -> { base with cache = Some c }
