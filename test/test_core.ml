(* Tests for the TACOMA core: folders, briefcases, cabinets, the meet
   operation, system agents and migration over each transport. *)

module Folder = Tacoma_core.Folder
module Briefcase = Tacoma_core.Briefcase
module Cabinet = Tacoma_core.Cabinet
module Codec = Tacoma_core.Codec
module Kernel = Tacoma_core.Kernel
module Net = Netsim.Net
module Topology = Netsim.Topology
module Netstats = Netsim.Netstats

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- folder --- *)

let test_folder_stack () =
  let f = Folder.create () in
  Folder.push f "a";
  Folder.push f "b";
  check Alcotest.(option string) "peek" (Some "b") (Folder.peek f);
  check Alcotest.(option string) "pop lifo" (Some "b") (Folder.pop f);
  check Alcotest.(option string) "pop lifo 2" (Some "a") (Folder.pop f);
  check Alcotest.(option string) "empty" None (Folder.pop f)

let test_folder_queue () =
  let f = Folder.create () in
  Folder.enqueue f "a";
  Folder.enqueue f "b";
  Folder.enqueue f "c";
  check Alcotest.(option string) "fifo" (Some "a") (Folder.dequeue f);
  Folder.enqueue f "d";
  check Alcotest.(option string) "fifo 2" (Some "b") (Folder.dequeue f);
  check Alcotest.(list string) "remaining order" [ "c"; "d" ] (Folder.to_list f)

let test_folder_mixed_ends () =
  let f = Folder.of_list [ "m" ] in
  Folder.push f "front";
  Folder.enqueue f "back";
  check Alcotest.(list string) "order" [ "front"; "m"; "back" ] (Folder.to_list f)

let test_folder_bytes () =
  let f = Folder.create () in
  check Alcotest.int "empty" 0 (Folder.byte_size f);
  Folder.enqueue f "abc";
  Folder.enqueue f "de";
  check Alcotest.int "sum" 5 (Folder.byte_size f);
  ignore (Folder.pop f);
  check Alcotest.int "after pop" 2 (Folder.byte_size f)

let test_folder_copy_isolated () =
  let f = Folder.of_list [ "x" ] in
  let g = Folder.copy f in
  Folder.enqueue g "y";
  check Alcotest.(list string) "original untouched" [ "x" ] (Folder.to_list f);
  check Alcotest.(list string) "copy grew" [ "x"; "y" ] (Folder.to_list g)

let test_folder_misc () =
  let f = Folder.of_list [ "a"; "b"; "c" ] in
  Alcotest.(check bool) "contains" true (Folder.contains f "b");
  Alcotest.(check bool) "not contains" false (Folder.contains f "z");
  check Alcotest.(option string) "nth" (Some "c") (Folder.nth_opt f 2);
  check Alcotest.(option string) "nth out of range" None (Folder.nth_opt f 5);
  Folder.replace f [ "q" ];
  check Alcotest.(list string) "replace" [ "q" ] (Folder.to_list f);
  Folder.clear f;
  Alcotest.(check bool) "cleared" true (Folder.is_empty f)

let test_folder_queue_property =
  qtest "folder behaves as fifo queue"
    QCheck2.Gen.(list_size (0 -- 40) (string_size ~gen:printable (0 -- 6)))
    (fun xs ->
      let f = Folder.create () in
      List.iter (Folder.enqueue f) xs;
      let rec drain acc =
        match Folder.dequeue f with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = xs)

(* model-based: a random sequence of folder operations must agree with a
   plain-list reference model at every step *)
type folder_op = Push of string | Enqueue of string | Pop | Peek | Len | Contains of string

let folder_op_gen =
  let open QCheck2.Gen in
  let s = string_size ~gen:printable (0 -- 4) in
  oneof
    [
      map (fun x -> Push x) s;
      map (fun x -> Enqueue x) s;
      pure Pop;
      pure Peek;
      pure Len;
      map (fun x -> Contains x) s;
    ]

let test_folder_model =
  qtest ~count:300 "folder agrees with a list model"
    QCheck2.Gen.(list_size (0 -- 60) folder_op_gen)
    (fun ops ->
      let f = Folder.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Push x ->
            Folder.push f x;
            model := x :: !model;
            true
          | Enqueue x ->
            Folder.enqueue f x;
            model := !model @ [ x ];
            true
          | Pop -> (
            let got = Folder.pop f in
            match !model with
            | [] -> got = None
            | x :: rest ->
              model := rest;
              got = Some x)
          | Peek -> (
            Folder.peek f = match !model with [] -> None | x :: _ -> Some x)
          | Len -> Folder.length f = List.length !model
          | Contains x -> Folder.contains f x = List.mem x !model)
        ops
      && Folder.to_list f = !model
      && Folder.byte_size f = List.fold_left (fun a s -> a + String.length s) 0 !model)

(* --- briefcase --- *)

let bc_gen =
  QCheck2.Gen.(
    list_size (0 -- 6)
      (pair (string_size ~gen:printable (1 -- 8))
         (list_size (0 -- 5) (string_size ~gen:(char_range '\x00' '\xff') (0 -- 16)))))

let bc_of_spec spec =
  let bc = Briefcase.create () in
  List.iter (fun (name, elems) -> Folder.replace (Briefcase.folder bc name) elems) spec;
  bc

let bc_equal a b =
  Briefcase.names a = Briefcase.names b
  && List.for_all
       (fun n -> Folder.to_list (Briefcase.folder a n) = Folder.to_list (Briefcase.folder b n))
       (Briefcase.names a)

let test_bc_serialize_roundtrip =
  qtest "serialize/deserialize roundtrip" bc_gen (fun spec ->
      let bc = bc_of_spec spec in
      bc_equal bc (Briefcase.deserialize (Briefcase.serialize bc)))

let test_bc_byte_size_exact =
  qtest "byte_size equals serialized length" bc_gen (fun spec ->
      let bc = bc_of_spec spec in
      Briefcase.byte_size bc = String.length (Briefcase.serialize bc))

(* binary names (the empty name included), empty folders, binary elements *)
let bc_binary_gen =
  QCheck2.Gen.(
    let bytes = string_size ~gen:(char_range '\x00' '\xff') in
    list_size (0 -- 8) (pair (bytes (0 -- 6)) (list_size (0 -- 4) (bytes (0 -- 12)))))

let test_bc_wire_canonical =
  qtest ~count:500 "wire -> briefcase -> wire is the identity" bc_binary_gen (fun spec ->
      let wire = Briefcase.serialize (bc_of_spec spec) in
      Briefcase.serialize (Briefcase.deserialize wire) = wire)

let test_bc_byte_size_binary =
  qtest ~count:500 "byte_size equals serialized length (binary names)" bc_binary_gen
    (fun spec ->
      let bc = bc_of_spec spec in
      String.length (Briefcase.serialize bc) = Briefcase.byte_size bc)

(* A briefcase wire built by hand: folder count, then (name, elements). *)
let raw_wire ?(count = -1) folders =
  let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF)) in
  let str s = u32 (String.length s) ^ s in
  let count = if count < 0 then List.length folders else count in
  u32 count
  ^ String.concat ""
      (List.map
         (fun (name, elems) ->
           str name ^ u32 (List.length elems) ^ String.concat "" (List.map str elems))
         folders)

let rejects what wire =
  match Briefcase.deserialize wire with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Codec.Malformed _ -> ()

let test_bc_raw_wire_accepted () =
  let wire = raw_wire [ ("A", [ "1" ]); ("B", []) ] in
  check Alcotest.string "hand-built wire is the canonical one" wire
    (Briefcase.serialize (Briefcase.deserialize wire))

let test_bc_rejects_trailing_bytes () =
  rejects "trailing byte" (raw_wire [ ("A", [ "1" ]) ] ^ "\x00");
  rejects "trailing folder" (raw_wire ~count:1 [ ("A", [ "1" ]); ("B", [ "2" ]) ])

let test_bc_rejects_duplicate_name () =
  rejects "duplicate" (raw_wire [ ("A", [ "1" ]); ("A", [ "2" ]) ]);
  rejects "duplicate empty name" (raw_wire [ ("", []); ("", []) ])

let test_bc_rejects_out_of_order () =
  rejects "descending" (raw_wire [ ("B", [ "1" ]); ("A", [ "2" ]) ]);
  rejects "prefix after longer" (raw_wire [ ("AB", []); ("A", []) ])

let test_codec_rejects_oversized_length () =
  let buf = Bytes.create 8 in
  check Alcotest.int "largest u32 fits" 4 (Codec.put_u32 buf 0 0xFFFF_FFFF);
  Alcotest.check_raises "above 32 bits" (Codec.Malformed "length exceeds 32 bits") (fun () ->
      ignore (Codec.put_u32 buf 0 0x1_0000_0000));
  Alcotest.check_raises "negative" (Codec.Malformed "negative length") (fun () ->
      ignore (Codec.put_u32 buf 0 (-1)))

let test_bc_basics () =
  let bc = Briefcase.create () in
  Briefcase.set bc "HOST" "site-1";
  check Alcotest.(option string) "get" (Some "site-1") (Briefcase.find_opt bc "HOST");
  Briefcase.set bc "HOST" "site-2";
  check Alcotest.(option string) "set replaces" (Some "site-2") (Briefcase.find_opt bc "HOST");
  check Alcotest.int "single element" 1 (Folder.length (Briefcase.folder bc "HOST"));
  Alcotest.(check bool) "mem" true (Briefcase.mem bc "HOST");
  Briefcase.remove bc "HOST";
  Alcotest.(check bool) "removed" false (Briefcase.mem bc "HOST");
  check Alcotest.(option string) "get missing" None (Briefcase.find_opt bc "HOST")

let test_bc_copy_deep () =
  let bc = Briefcase.create () in
  Briefcase.set bc "F" "1";
  let c = Briefcase.copy bc in
  Folder.enqueue (Briefcase.folder c "F") "2";
  check Alcotest.int "original unchanged" 1 (Folder.length (Briefcase.folder bc "F"));
  check Alcotest.int "copy changed" 2 (Folder.length (Briefcase.folder c "F"))

let test_bc_deserialize_corrupt () =
  Alcotest.check_raises "truncated" (Codec.Malformed "truncated length") (fun () ->
      ignore (Briefcase.deserialize "\x00\x00\x00\x05"))

let test_bc_deserialize_fuzz =
  qtest ~count:500 "deserialize never crashes with anything but Malformed"
    QCheck2.Gen.(string_size ~gen:(char_range '\x00' '\xff') (0 -- 64))
    (fun junk ->
      match Briefcase.deserialize junk with
      | _ -> true
      | exception Codec.Malformed _ -> true
      | exception _ -> false)

let test_bc_agent_in_folder () =
  (* paper §4: folders are typeless, so a folder can store a whole agent
     (code + briefcase) *)
  let inner = Briefcase.create () in
  Briefcase.set inner Briefcase.code_folder "log hello";
  let outer = Briefcase.create () in
  Folder.enqueue (Briefcase.folder outer "PARKED") (Briefcase.serialize inner);
  let wire = Briefcase.serialize outer in
  let back = Briefcase.deserialize wire in
  let parked = Option.get (Folder.peek (Briefcase.folder back "PARKED")) in
  let inner' = Briefcase.deserialize parked in
  check Alcotest.(option string) "agent recovered" (Some "log hello")
    (Briefcase.find_opt inner' Briefcase.code_folder)

(* --- cabinet --- *)

let test_cabinet_ops () =
  let c = Cabinet.create () in
  Cabinet.put c "F" "a";
  Cabinet.put c "F" "b";
  Cabinet.push c "F" "front";
  check Alcotest.(list string) "order" [ "front"; "a"; "b" ] (Cabinet.elements c "F");
  Alcotest.(check bool) "contains O(1)" true (Cabinet.contains c "F" "a");
  check Alcotest.(option string) "pop" (Some "front") (Cabinet.pop c "F");
  Alcotest.(check bool) "index updated" false (Cabinet.contains c "F" "front");
  Cabinet.remove_element c "F" "a";
  check Alcotest.(list string) "removed" [ "b" ] (Cabinet.elements c "F")

let test_cabinet_duplicate_elements () =
  let c = Cabinet.create () in
  Cabinet.put c "F" "x";
  Cabinet.put c "F" "x";
  ignore (Cabinet.pop c "F");
  Alcotest.(check bool) "multiset index keeps second copy" true (Cabinet.contains c "F" "x");
  ignore (Cabinet.pop c "F");
  Alcotest.(check bool) "now gone" false (Cabinet.contains c "F" "x")

let test_cabinet_kv () =
  let c = Cabinet.create () in
  Cabinet.set_kv c "CONF" ~key:"load" "0.5";
  Cabinet.set_kv c "CONF" ~key:"cap" "4";
  Cabinet.set_kv c "CONF" ~key:"load" "0.9";
  check Alcotest.(option string) "kv get" (Some "0.9") (Cabinet.find_kv_opt c "CONF" ~key:"load");
  check Alcotest.int "no duplicate keys" 2 (List.length (Cabinet.kv_bindings c "CONF"));
  check Alcotest.(option string) "missing key" None (Cabinet.find_kv_opt c "CONF" ~key:"zzz")

let test_cabinet_flush_recover () =
  let c = Cabinet.create () in
  Cabinet.put c "KEEP" "durable";
  Cabinet.flush c;
  Cabinet.put c "KEEP" "volatile";
  Cabinet.put c "LOST" "volatile2";
  let r = Cabinet.recover c in
  check Alcotest.(list string) "flushed survives" [ "durable" ] (Cabinet.elements r "KEEP");
  Alcotest.(check bool) "unflushed folder gone" false (Cabinet.folder_exists r "LOST");
  Alcotest.(check bool) "index rebuilt" true (Cabinet.contains r "KEEP" "durable")

let test_cabinet_recover_without_flush_empty () =
  let c = Cabinet.create () in
  Cabinet.put c "F" "x";
  let r = Cabinet.recover c in
  check Alcotest.(list string) "nothing survives" [] (Cabinet.elements r "F")

let test_cabinet_flush_folder () =
  let c = Cabinet.create () in
  Cabinet.put c "A" "1";
  Cabinet.put c "B" "2";
  Cabinet.flush_folder c "A";
  let r = Cabinet.recover c in
  Alcotest.(check bool) "A kept" true (Cabinet.folder_exists r "A");
  Alcotest.(check bool) "B lost" false (Cabinet.folder_exists r "B")

(* --- kernel: meets and system agents --- *)

let mk_kernel ?config ?(topo = Topology.line 3) () =
  let net = Net.create topo in
  let k = Kernel.create ?config net in
  (net, k)

let test_meet_native () =
  let net, k = mk_kernel () in
  let seen = ref None in
  Kernel.register_native k "greeter" (fun _ bc ->
      seen := Briefcase.find_opt bc "NAME";
      Briefcase.set bc "REPLY" "hello");
  let bc = Briefcase.create () in
  Briefcase.set bc "NAME" "world";
  Kernel.launch k ~site:0 ~contact:"greeter" bc;
  Net.run net;
  check Alcotest.(option string) "argument seen" (Some "world") !seen;
  check Alcotest.(option string) "reply written" (Some "hello") (Briefcase.find_opt bc "REPLY")

let test_meet_unknown_agent_dies () =
  let net, k = mk_kernel () in
  let reason = ref "" in
  Kernel.on_death k (fun ~site:_ ~agent:_ ~reason:r -> reason := r);
  Kernel.launch k ~site:0 ~contact:"missing" (Briefcase.create ());
  Net.run net;
  check Alcotest.int "death recorded" 1 (Kernel.deaths k);
  Alcotest.(check bool) "reason mentions meet" true (String.length !reason > 0)

let test_meet_script_agent () =
  let net, k = mk_kernel () in
  Kernel.install_script k "sq" ~code:"folder set RESULT [expr {[folder peek X] ** 2}]";
  let bc = Briefcase.create () in
  Briefcase.set bc "X" "9";
  Kernel.launch k ~site:1 ~contact:"sq" bc;
  Net.run net;
  check Alcotest.(option string) "script computed" (Some "81.0") (Briefcase.find_opt bc "RESULT")

let test_site_scoped_agent () =
  let net, k = mk_kernel () in
  Kernel.register_native k ~site:1 "local_svc" (fun _ bc -> Briefcase.set bc "OK" "1");
  Alcotest.(check bool) "exists at 1" true (Kernel.agent_exists k 1 "local_svc");
  Alcotest.(check bool) "absent at 0" false (Kernel.agent_exists k 0 "local_svc");
  Kernel.launch k ~site:0 ~contact:"local_svc" (Briefcase.create ());
  Net.run net;
  check Alcotest.int "death at wrong site" 1 (Kernel.deaths k)

let test_nested_meet () =
  let net, k = mk_kernel () in
  Kernel.register_native k "outer" (fun ctx bc ->
      Briefcase.set bc "TRAIL" "outer";
      Kernel.meet ctx "inner" bc);
  Kernel.register_native k "inner" (fun _ bc ->
      Briefcase.set bc "TRAIL" (Option.get (Briefcase.find_opt bc "TRAIL") ^ "+inner"));
  let bc = Briefcase.create () in
  Kernel.launch k ~site:0 ~contact:"outer" bc;
  Net.run net;
  check Alcotest.(option string) "nesting" (Some "outer+inner") (Briefcase.find_opt bc "TRAIL")

let test_script_error_catchable_by_caller () =
  let net, k = mk_kernel () in
  Kernel.install_script k "failing" ~code:"error boom";
  Kernel.install_script k "robust" ~code:"catch {meet failing} m; folder set SAW $m";
  let bc = Briefcase.create () in
  Kernel.launch k ~site:0 ~contact:"robust" bc;
  Net.run net;
  check Alcotest.int "no death" 0 (Kernel.deaths k);
  Alcotest.(check bool) "error message seen" true
    (match Briefcase.find_opt bc "SAW" with Some s -> String.length s > 0 | None -> false)

(* --- kernel: migration --- *)

let hop_code = {|
  folder put TRAIL [host]
  if {[folder size TRAIL] < 3} {
    set next ""
    foreach n [neighbors] {
      if {![folder contains TRAIL $n]} { set next $n; break }
    }
    folder set CODE [selfcode]
    jump $next
  } else {
    meet filer
  }
|}

let run_journey transport =
  let config = { Kernel.default_config with default_transport = transport } in
  let net, k = mk_kernel ~config ~topo:(Topology.line 3) () in
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.code_folder hop_code;
  Kernel.launch k ~site:0 ~contact:"ag_script" bc;
  Net.run ~until:30.0 net;
  (net, k)

let test_migration_each_transport () =
  List.iter
    (fun tr ->
      let _, k = run_journey tr in
      let trail = Cabinet.elements (Kernel.cabinet k 2) "TRAIL" in
      check Alcotest.(list string)
        (Kernel.transport_name tr ^ " journey")
        [ "line-0"; "line-1"; "line-2" ] trail;
      check Alcotest.int "two migrations" 2 (Kernel.migrations k);
      check Alcotest.int "no deaths" 0 (Kernel.deaths k))
    [ Kernel.Rsh; Kernel.Tcp; Kernel.Horus ]

let test_transport_cost_ordering () =
  (* rsh must be slowest per hop (spawn), bytes: rsh > horus > tcp *)
  let bytes tr =
    let net, _ = run_journey tr in
    Netstats.bytes_sent (Net.stats net)
  in
  let rsh = bytes Kernel.Rsh and tcp = bytes Kernel.Tcp and horus = bytes Kernel.Horus in
  Alcotest.(check bool) "rsh > horus" true (rsh > horus);
  Alcotest.(check bool) "horus > tcp" true (horus > tcp)

let test_tcp_connection_reuse () =
  (* two journeys over the same links: second pays no handshake *)
  let config = { Kernel.default_config with default_transport = Kernel.Tcp } in
  let net, k = mk_kernel ~config ~topo:(Topology.line 2) () in
  let send_one () =
    let bc = Briefcase.create () in
    Briefcase.set bc Briefcase.code_folder "meet filer";
    Briefcase.set bc Briefcase.host_folder "line-1";
    Briefcase.set bc Briefcase.contact_folder "ag_script";
    Kernel.launch k ~site:0 ~contact:"rexec" bc
  in
  send_one ();
  Net.run ~until:5.0 net;
  let b1 = Netstats.bytes_sent (Net.stats net) in
  send_one ();
  Net.run ~until:10.0 net;
  let b2 = Netstats.bytes_sent (Net.stats net) - b1 in
  Alcotest.(check bool) "second trip cheaper" true (b2 < b1)

let test_horus_retransmits_through_downtime () =
  (* destination is down when the migration is sent; horus retries until the
     site restarts, so the agent eventually arrives *)
  let config =
    { Kernel.default_config with
      default_transport = Kernel.Horus;
      horus = { Kernel.default_config.horus with max_attempts = 8 } }
  in
  let net, k = mk_kernel ~config ~topo:(Topology.line 2) () in
  Netsim.Chaos.crash_for net ~site:1 ~at:0.5 ~downtime:3.0;
  ignore
    (Net.schedule net ~after:1.0 (fun () ->
         let bc = Briefcase.create () in
         Briefcase.set bc Briefcase.code_folder "cabinet put ARRIVED yes";
         Briefcase.set bc Briefcase.host_folder "line-1";
         Briefcase.set bc Briefcase.contact_folder "ag_script";
         Kernel.launch k ~site:0 ~contact:"rexec" bc));
  Net.run ~until:30.0 net;
  check Alcotest.(list string) "arrived after restart" [ "yes" ]
    (Cabinet.elements (Kernel.cabinet k 1) "ARRIVED")

let test_horus_survives_lossy_network () =
  (* 30% message loss: every horus migration still lands (retransmission +
     duplicate suppression), tcp loses a chunk *)
  let run transport =
    let topo = Topology.line 2 in
    let net = Net.create ~loss_rate:0.3 topo in
    let config =
      { Kernel.default_config with
        default_transport = transport;
        horus = { Kernel.default_config.horus with max_attempts = 12; rto = 0.2 } }
    in
    let k = Kernel.create ~config net in
    let arrived = ref 0 in
    Kernel.register_native k "counter" (fun _ _ -> incr arrived);
    for i = 0 to 39 do
      ignore
        (Net.schedule net ~after:(0.1 *. float_of_int i) (fun () ->
             let bc = Briefcase.create () in
             Briefcase.set bc Briefcase.host_folder "line-1";
             Briefcase.set bc Briefcase.contact_folder "counter";
             Kernel.launch k ~site:0 ~contact:"rexec" bc))
    done;
    Net.run ~until:300.0 net;
    !arrived
  in
  check Alcotest.int "horus delivers every agent" 40 (run Kernel.Horus);
  let tcp = run Kernel.Tcp in
  Alcotest.(check bool) "tcp loses some" true (tcp < 40);
  Alcotest.(check bool) "tcp delivers some" true (tcp > 10)

let test_horus_delayed_ack_no_double_delivery () =
  (* a degraded link delays the ack far past the rto: horus retransmits the
     migration several times, the receiver's mid table suppresses every
     duplicate (while still acking it), and the agent activates exactly once *)
  let config =
    { Kernel.default_config with
      default_transport = Kernel.Horus;
      horus = { Kernel.default_config.horus with rto = 0.5; max_attempts = 10 } }
  in
  let net, k = mk_kernel ~config ~topo:(Topology.line 2) () in
  Net.set_link_degraded net 0 1 (Some (400.0, 1.0));
  let arrived = ref 0 in
  Kernel.register_native k "counter" (fun _ _ -> incr arrived);
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.host_folder "line-1";
  Briefcase.set bc Briefcase.contact_folder "counter";
  Kernel.launch k ~site:0 ~contact:"rexec" bc;
  Net.run ~until:60.0 net;
  check Alcotest.int "agent activated exactly once" 1 !arrived;
  Alcotest.(check bool) "slow ack forced retransmissions" true
    (Obs.Metrics.counter (Kernel.metrics k) "horus.retransmits" >= 1);
  check Alcotest.int "no horus giveup" 0
    (Obs.Metrics.counter (Kernel.metrics k) "horus.giveups")

(* --- the message path: a message carries a snapshot of its briefcase --- *)

(* [probe] at site 1 records every briefcase it receives, then scribbles on
   it, so a shared snapshot would show in a later delivery *)
let recording_probe k =
  let got = ref [] in
  Kernel.register_native k ~site:1 "probe" (fun _ bc ->
      got := Folder.to_list (Briefcase.folder bc "F") :: !got;
      Folder.enqueue (Briefcase.folder bc "F") "scribble");
  got

let test_send_briefcase_snapshot () =
  let net, k = mk_kernel ~topo:(Topology.line 2) () in
  let got = recording_probe k in
  let bc = Briefcase.create () in
  Briefcase.set bc "F" "a";
  Kernel.send_briefcase k ~src:0 ~dst:1 ~contact:"probe" bc;
  Folder.enqueue (Briefcase.folder bc "F") "late";
  Net.run net;
  check Alcotest.(list (list string)) "sent state arrives" [ [ "a" ] ] !got;
  check Alcotest.(list string) "receiver does not touch the sender's copy" [ "a"; "late" ]
    (Folder.to_list (Briefcase.folder bc "F"))

let test_rexec_snapshot () =
  List.iter
    (fun transport ->
      let config = { Kernel.default_config with default_transport = transport } in
      let net, k = mk_kernel ~config ~topo:(Topology.line 2) () in
      let got = recording_probe k in
      Kernel.register_native k ~site:0 "sender" (fun ctx bc ->
          Kernel.meet ctx "rexec" bc;
          (* rsh has not even transmitted yet: it waits out its spawn delay *)
          Folder.enqueue (Briefcase.folder bc "F") "late");
      let bc = Briefcase.create () in
      Briefcase.set bc "F" "a";
      Briefcase.set bc Briefcase.host_folder "line-1";
      Briefcase.set bc Briefcase.contact_folder "probe";
      Kernel.launch k ~site:0 ~contact:"sender" bc;
      Net.run net;
      check Alcotest.(list (list string)) (Kernel.transport_name transport) [ [ "a" ] ] !got)
    [ Kernel.Rsh; Kernel.Tcp; Kernel.Horus ]

let test_horus_redelivery_gets_own_copy () =
  (* the migration lands at ~5 ms; its ack would land at ~11 ms, but site 0
     is down then, so the ack is lost.  Site 1 restarts with an empty
     duplicate table, and the retransmission at 1 s activates the agent a
     second time, from the same payload *)
  let config = { Kernel.default_config with default_transport = Kernel.Horus } in
  let net, k = mk_kernel ~config ~topo:(Topology.line 2) () in
  let got = recording_probe k in
  Netsim.Chaos.crash_for net ~site:0 ~at:0.008 ~downtime:0.1;
  Netsim.Chaos.crash_for net ~site:1 ~at:0.2 ~downtime:0.1;
  let bc = Briefcase.create () in
  Briefcase.set bc "F" "a";
  Kernel.migrate k ~src:0 ~dst:1 ~contact:"probe" ~transport:Kernel.Horus bc;
  Net.run net;
  check Alcotest.int "one retransmission" 1
    (Obs.Metrics.counter (Kernel.metrics k) "horus.retransmits");
  check Alcotest.(list (list string)) "two deliveries, two clean copies" [ [ "a" ]; [ "a" ] ] !got

(* Whatever the transport and whether the code cache is on, the briefcase
   that arrives is the one the wire format would have carried, and the
   network is charged the encoded size, as when messages carried bytes. *)
let test_migration_carries_wire_image =
  let gen =
    QCheck2.Gen.(
      tup4 bc_gen
        (list_size (0 -- 2) (string_size ~gen:printable (0 -- 40)))
        (oneofl [ Kernel.Rsh; Kernel.Tcp; Kernel.Horus ])
        bool)
  in
  qtest ~count:150 "arriving briefcase and bytes match the wire image" gen
    (fun (spec, code, transport, cached) ->
      let spec =
        List.filter
          (fun (n, _) -> n <> Briefcase.code_folder && n <> Briefcase.code_ref_folder)
          spec
      in
      let bc = bc_of_spec ((Briefcase.code_folder, code) :: spec) in
      let cfg = Kernel.default_config in
      let config = { cfg with cache = (if cached then Some Kernel.default_cache_config else None) } in
      let net, k = mk_kernel ~config ~topo:(Topology.line 2) () in
      let got = ref None in
      Kernel.register_native k ~site:1 "probe" (fun _ b -> got := Some (Briefcase.copy b));
      let expected = Briefcase.deserialize (Briefcase.serialize bc) in
      Kernel.migrate k ~src:0 ~dst:1 ~contact:"probe" ~transport bc;
      Net.run net;
      (* the wire image: CODE travels as its digest when the cache is on *)
      let wire = Briefcase.copy bc in
      let fetch =
        if cached && code <> [] then begin
          let cc = Kernel.default_cache_config in
          Briefcase.remove wire Briefcase.code_folder;
          Briefcase.set wire Briefcase.code_ref_folder (Tacoma_core.Codecache.digest code);
          cc.request_bytes + cc.reply_overhead_bytes + Tacoma_core.Codecache.wire_bytes code
        end
        else 0
      in
      let base = String.length (Briefcase.serialize wire) + cfg.migration_overhead in
      let transport_bytes =
        match transport with
        | Kernel.Rsh -> cfg.rsh.extra_bytes
        | Kernel.Tcp -> cfg.tcp.extra_bytes + cfg.tcp.handshake_bytes
        | Kernel.Horus -> cfg.horus.extra_bytes + cfg.horus.ack_bytes
      in
      (match !got with Some b -> bc_equal b expected | None -> false)
      && Netstats.bytes_sent (Net.stats net) = base + transport_bytes + fetch)

let test_tcp_loses_migration_to_down_site () =
  let config = { Kernel.default_config with default_transport = Kernel.Tcp } in
  let net, k = mk_kernel ~config ~topo:(Topology.line 2) () in
  Netsim.Chaos.crash_for net ~site:1 ~at:0.5 ~downtime:3.0;
  ignore
    (Net.schedule net ~after:1.0 (fun () ->
         let bc = Briefcase.create () in
         Briefcase.set bc Briefcase.code_folder "cabinet put ARRIVED yes";
         Briefcase.set bc Briefcase.host_folder "line-1";
         Briefcase.set bc Briefcase.contact_folder "ag_script";
         Kernel.launch k ~site:0 ~contact:"rexec" bc));
  Net.run ~until:30.0 net;
  check Alcotest.(list string) "agent lost" []
    (Cabinet.elements (Kernel.cabinet k 1) "ARRIVED")

let test_kernel_horus_group_mode () =
  (* horus_group = true: the kernel maintains a group over all sites, the
     group view tracks crashes/restarts, and horus-transport retries to a
     known-dead site are abandoned early *)
  let config =
    { Kernel.default_config with
      horus = { Kernel.default_config.horus with group = true } }
  in
  let net = Net.create (Topology.full_mesh 4) in
  let k = Kernel.create ~config net in
  (match Kernel.horus_group k with
  | None -> Alcotest.fail "group not created"
  | Some g ->
    Net.run ~until:1.0 net;
    (match Horus.Group.view_at g 0 with
    | Some v -> check Alcotest.int "all sites in the group" 4 (Horus.View.size v)
    | None -> Alcotest.fail "no view");
    Netsim.Chaos.crash_for net ~site:2 ~at:2.0 ~downtime:6.0;
    Net.run ~until:6.0 net;
    (match Horus.Group.view_at g 0 with
    | Some v -> Alcotest.(check bool) "crashed site left the view" false (Horus.View.mem v 2)
    | None -> Alcotest.fail "no view after crash");
    (* the kernel rejoins the group automatically on restart *)
    Net.run ~until:20.0 net;
    match Horus.Group.view_at g 0 with
    | Some v -> Alcotest.(check bool) "restarted site rejoined" true (Horus.View.mem v 2)
    | None -> Alcotest.fail "no view after restart")

let test_kernel_group_aborts_retries_to_dead_site () =
  let config =
    { Kernel.default_config with
      horus =
        { Kernel.default_config.horus with group = true; max_attempts = 50; rto = 1.0 } }
  in
  let net = Net.create ~trace:true (Topology.full_mesh 4) in
  let k = Kernel.create ~config net in
  Netsim.Chaos.crash_for net ~site:1 ~at:0.0 ~downtime:Float.infinity;
  ignore
    (Net.schedule net ~after:5.0 (fun () ->
         let bc = Briefcase.create () in
         Briefcase.set bc Briefcase.host_folder "mesh-1";
         Briefcase.set bc Briefcase.contact_folder "noop";
         Briefcase.set bc "TRANSPORT" "horus";
         Kernel.launch k ~site:0 ~contact:"rexec" bc));
  Net.run ~until:60.0 net;
  let gave_up =
    List.exists
      (fun (e : Obs.Event.t) -> e.name = "horus.giveup")
      (Obs.Tracer.events (Net.recorder net))
  in
  Alcotest.(check bool) "abandoned quickly (not 50 retries)" true gave_up

(* --- kernel: crash semantics --- *)

let test_crash_kills_sleeping_activation () =
  let net, k = mk_kernel () in
  let resumed = ref false in
  Kernel.register_native k "sleeper" (fun ctx _ ->
      Kernel.sleep ctx 5.0;
      resumed := true);
  Kernel.launch k ~site:1 ~contact:"sleeper" (Briefcase.create ());
  Netsim.Chaos.crash_for net ~site:1 ~at:1.0 ~downtime:Float.infinity;
  Net.run ~until:20.0 net;
  Alcotest.(check bool) "not resumed" false !resumed;
  check Alcotest.int "death recorded" 1 (Kernel.deaths k)

let test_crash_then_restart_does_not_resurrect () =
  let net, k = mk_kernel () in
  let resumed = ref false in
  Kernel.register_native k "sleeper" (fun ctx _ ->
      Kernel.sleep ctx 5.0;
      resumed := true);
  Kernel.launch k ~site:1 ~contact:"sleeper" (Briefcase.create ());
  Netsim.Chaos.crash_for net ~site:1 ~at:1.0 ~downtime:1.0;
  Net.run ~until:20.0 net;
  Alcotest.(check bool) "still not resumed after restart" false !resumed

let test_sleep_survives_when_no_crash () =
  let net, k = mk_kernel () in
  let resumed_at = ref 0.0 in
  Kernel.register_native k "sleeper" (fun ctx _ ->
      Kernel.sleep ctx 5.0;
      resumed_at := Kernel.now ctx.Kernel.kernel);
  Kernel.launch k ~site:1 ~contact:"sleeper" (Briefcase.create ());
  Net.run ~until:20.0 net;
  check (Alcotest.float 1e-6) "resumed on time" 5.0 !resumed_at;
  check Alcotest.int "completion" 1 (Kernel.completions k)

let test_cabinet_persistence_across_crash () =
  let net, k = mk_kernel () in
  let cab = Kernel.cabinet k 1 in
  Cabinet.put cab "DURABLE" "x";
  Cabinet.flush cab;
  Cabinet.put cab "EPHEMERAL" "y";
  Netsim.Chaos.crash_for net ~site:1 ~at:1.0 ~downtime:1.0;
  Net.run ~until:5.0 net;
  let cab' = Kernel.cabinet k 1 in
  check Alcotest.(list string) "flushed data back" [ "x" ] (Cabinet.elements cab' "DURABLE");
  Alcotest.(check bool) "volatile gone" false (Cabinet.folder_exists cab' "EPHEMERAL");
  (* SITES reseeded for diffusion *)
  Alcotest.(check bool) "SITES reseeded" true
    (Cabinet.size cab' Briefcase.sites_folder > 0)

let test_step_limit_kills_runaway () =
  let config = { Kernel.default_config with step_limit = Some 1000 } in
  let net, k = mk_kernel ~config () in
  Kernel.install_script k "runaway" ~code:"while {1} {set x 1}";
  Kernel.launch k ~site:0 ~contact:"runaway" (Briefcase.create ());
  Net.run ~until:5.0 net;
  check Alcotest.int "killed" 1 (Kernel.deaths k)

let test_per_agent_activity () =
  let net, k = mk_kernel () in
  Kernel.register_native k "fine" (fun _ _ -> ());
  Kernel.install_script k "doomed" ~code:"error boom";
  Kernel.launch k ~site:0 ~contact:"fine" (Briefcase.create ());
  Kernel.launch k ~site:0 ~contact:"fine" (Briefcase.create ());
  Kernel.launch k ~site:0 ~contact:"doomed" (Briefcase.create ());
  Net.run net;
  let find name = List.assoc name (Kernel.activity k) in
  check Alcotest.int "fine ran twice" 2 (find "fine").Kernel.a_activations;
  check Alcotest.int "fine completed twice" 2 (find "fine").Kernel.a_completions;
  check Alcotest.int "fine never died" 0 (find "fine").Kernel.a_deaths;
  check Alcotest.int "doomed died once" 1 (find "doomed").Kernel.a_deaths;
  check Alcotest.int "doomed never completed" 0 (find "doomed").Kernel.a_completions

(* --- determinism: the reproducibility guarantee the experiments rely on --- *)

let test_whole_system_determinism () =
  (* an eventful run — diffusion, failures, retransmissions, script agents —
     must produce bit-identical statistics for identical seeds, and a
     different seed must diverge *)
  let run seed =
    let topo = Topology.grid 3 3 in
    let net = Net.create ~seed ~loss_rate:0.1 topo in
    let config = { Kernel.default_config with default_transport = Kernel.Horus } in
    let k = Kernel.create ~config net in
    Netsim.Chaos.apply net
      (Netsim.Chaos.crashes
         ~rng:(Tacoma_util.Rng.create seed)
         ~sites:(Net.sites net) ~rate:0.01 ~mean_downtime:3.0 ~until:30.0);
    let bc = Briefcase.create () in
    Briefcase.set bc Briefcase.contact_folder "noop";
    Kernel.launch k ~site:0 ~contact:"diffusion" bc;
    Kernel.install_script k "wanderer"
      ~code:"folder put SITES [host]; set u [unvisited_neighbors]; if {[llength $u] > 0} { travel [lindex $u 0] }";
    Kernel.launch k ~site:4 ~contact:"wanderer" (Briefcase.create ());
    Net.run ~until:60.0 net;
    let stats = Net.stats net in
    ( Netsim.Netstats.messages_sent stats,
      Netsim.Netstats.bytes_sent stats,
      Netsim.Netstats.messages_dropped stats,
      Kernel.activations k,
      Kernel.migrations k,
      Kernel.deaths k )
  in
  let a = run 123L and b = run 123L and c = run 456L in
  Alcotest.(check bool) "identical seeds, identical runs" true (a = b);
  Alcotest.(check bool) "different seed diverges" true (a <> c)

(* --- prelude (standard agent library) --- *)

let test_prelude_travel () =
  let net, k = mk_kernel () in
  Kernel.install_script k "tourist"
    ~code:{|
      folder put TRAIL [host]
      if {[folder size TRAIL] < 3} {
        travel [lindex [unvisited_neighbors] 0]
      } else {
        meet filer
      }
      folder put SITES [host]
    |};
  (* note: the script records SITES after travelling, so unvisited_neighbors
     works off the briefcase SITES folder *)
  let bc = Briefcase.create () in
  Folder.replace (Briefcase.folder bc "SITES") [ "line-0" ];
  Kernel.launch k ~site:0 ~contact:"tourist" bc;
  Net.run ~until:30.0 net;
  check Alcotest.(list string) "travelled via prelude" [ "line-0"; "line-1"; "line-2" ]
    (Cabinet.elements (Kernel.cabinet k 2) "TRAIL");
  check Alcotest.int "no deaths" 0 (Kernel.deaths k)

let test_prelude_visited_and_notes () =
  let net, k = mk_kernel () in
  Kernel.install_script k "noter"
    ~code:{|
      if {![visited me]} {
        mark_visited me
        remember color blue
        folder set FIRST yes
      } else {
        folder set FIRST no
        folder set COLOR [recall color]
      }
    |};
  let bc1 = Briefcase.create () in
  Kernel.launch k ~site:1 ~contact:"noter" bc1;
  Net.run ~until:5.0 net;
  let bc2 = Briefcase.create () in
  Kernel.launch k ~site:1 ~contact:"noter" bc2;
  Net.run ~until:10.0 net;
  check Alcotest.(option string) "first run" (Some "yes") (Briefcase.find_opt bc1 "FIRST");
  check Alcotest.(option string) "second run sees the mark" (Some "no")
    (Briefcase.find_opt bc2 "FIRST");
  check Alcotest.(option string) "note recalled" (Some "blue") (Briefcase.find_opt bc2 "COLOR");
  (* remember flushes: the note survives a crash (the volatile VISITED mark
     does not — that asymmetry is the point of the two primitives) *)
  Netsim.Chaos.crash_for net ~site:1 ~at:11.0 ~downtime:1.0;
  Net.run ~until:20.0 net;
  check Alcotest.(option string) "note survives crash" (Some "blue")
    (Cabinet.find_kv_opt (Kernel.cabinet k 1) "NOTES" ~key:"color");
  Alcotest.(check bool) "visited mark is volatile" false
    (Cabinet.contains (Kernel.cabinet k 1) "VISITED" "me")

let test_prelude_send_folder () =
  let net, k = mk_kernel () in
  Kernel.install_script k "shipper"
    ~code:{|
      carry CARGO one two three
      send_folder line-2 filer CARGO
    |};
  Kernel.launch k ~site:0 ~contact:"shipper" (Briefcase.create ());
  Net.run ~until:5.0 net;
  check Alcotest.(list string) "cargo filed remotely" [ "one"; "two"; "three" ]
    (Cabinet.elements (Kernel.cabinet k 2) "CARGO")

(* --- itinerary --- *)

module Itinerary = Tacoma_core.Itinerary

let test_itinerary_orders_by_latency () =
  (* on a line, visiting in graph order is optimal; a shuffled request must
     come back sorted by distance from the start *)
  let net = Net.create (Topology.line 6) in
  let k = Kernel.create net in
  check Alcotest.(list int) "nearest-neighbour order" [ 1; 2; 3; 4; 5 ]
    (Itinerary.plan k ~from:0 [ 4; 1; 5; 3; 2 ]);
  check Alcotest.(list int) "round trip ends home" [ 1; 2; 3; 0 ]
    (Itinerary.round_trip k ~from:0 [ 2; 3; 1 ])

let test_itinerary_beats_naive_order () =
  let net = Net.create (Topology.line 8) in
  let k = Kernel.create net in
  let wanted = [ 7; 1; 6; 2; 5; 3 ] in
  let planned = Itinerary.plan k ~from:0 wanted in
  Alcotest.(check bool) "planned tour at most the naive cost" true
    (Itinerary.tour_cost k ~from:0 planned <= Itinerary.tour_cost k ~from:0 wanted)

let test_itinerary_handles_unreachable () =
  let net = Net.create (Topology.line 4) in
  let k = Kernel.create net in
  Net.set_link_enabled net 2 3 false;
  let planned = Itinerary.plan k ~from:0 [ 3; 1; 2 ] in
  check Alcotest.(list int) "unreachable parked at the end" [ 1; 2; 3 ] planned;
  check (Alcotest.float 1e-9) "its cost is infinite" infinity
    (Itinerary.tour_cost k ~from:0 planned)

let test_itinerary_folder_roundtrip () =
  let net = Net.create (Topology.line 4) in
  let k = Kernel.create net in
  let f = Folder.create () in
  Itinerary.to_folder k f [ 2; 1; 3 ];
  check Alcotest.(list string) "names written" [ "line-2"; "line-1"; "line-3" ]
    (Folder.to_list f);
  check Alcotest.(list int) "parsed back" [ 2; 1; 3 ] (Itinerary.of_folder k f);
  Folder.enqueue f "atlantis";
  check Alcotest.(list int) "unknown names skipped" [ 2; 1; 3 ] (Itinerary.of_folder k f)

(* --- system agents --- *)

let test_courier_delivers_folder () =
  let net, k = mk_kernel () in
  let bc = Briefcase.create () in
  Folder.replace (Briefcase.folder bc "REPORT") [ "r1"; "r2" ];
  Briefcase.set bc Briefcase.host_folder "line-2";
  Briefcase.set bc Briefcase.contact_folder "filer";
  Briefcase.set bc "FOLDER" "REPORT";
  Kernel.launch k ~site:0 ~contact:"courier" bc;
  Net.run ~until:5.0 net;
  check Alcotest.(list string) "folder contents filed" [ "r1"; "r2" ]
    (Cabinet.elements (Kernel.cabinet k 2) "REPORT")

let test_courier_missing_folder_errors () =
  let net, k = mk_kernel () in
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.host_folder "line-1";
  Kernel.launch k ~site:0 ~contact:"courier" bc;
  Net.run ~until:5.0 net;
  check Alcotest.int "death" 1 (Kernel.deaths k)

let test_diffusion_reaches_all_once () =
  let topo = Topology.grid 3 3 in
  let net = Net.create topo in
  let k = Kernel.create net in
  let visits = ref [] in
  Kernel.register_native k "mark" (fun ctx _ ->
      visits := ctx.Kernel.site :: !visits);
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.contact_folder "mark";
  Kernel.launch k ~site:0 ~contact:"diffusion" bc;
  Net.run ~until:60.0 net;
  let sorted = List.sort_uniq compare !visits in
  check Alcotest.(list int) "every site exactly once" (List.init 9 Fun.id) sorted;
  check Alcotest.int "no duplicate executions" 9 (List.length !visits)

let test_diffusion_random_graphs =
  qtest ~count:25 "diffusion covers every random connected graph exactly once"
    QCheck2.Gen.(pair (int_range 3 14) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Tacoma_util.Rng.create (Int64.of_int seed) in
      let topo = Netsim.Topology.random ~rng ~n ~p:0.3 () in
      let net = Net.create topo in
      let k = Kernel.create net in
      let visits = ref [] in
      Kernel.register_native k "mark" (fun ctx _ -> visits := ctx.Kernel.site :: !visits);
      let bc = Briefcase.create () in
      Briefcase.set bc Briefcase.contact_folder "mark";
      Kernel.launch k ~site:0 ~contact:"diffusion" bc;
      Net.run ~until:600.0 net;
      List.sort compare !visits = List.init n Fun.id)

let test_guarded_journeys_random_itineraries =
  qtest ~count:20 "guarded journeys complete on random itineraries (no faults)"
    QCheck2.Gen.(pair (list_size (1 -- 8) (int_range 0 5)) (int_range 0 1_000))
    (fun (itinerary, salt) ->
      let net = Net.create (Topology.full_mesh 6) in
      let k = Kernel.create net in
      let j =
        Guard.Escort.guarded_journey k
          ~id:(Printf.sprintf "prop-%d-%d" salt (Hashtbl.hash itinerary))
          ~itinerary
          ~work:(fun _ ~hop:_ _ -> ())
          (Briefcase.create ())
      in
      Net.run ~until:120.0 net;
      let s = Guard.Escort.stats j in
      s.Guard.Escort.completed && s.Guard.Escort.relaunches = 0
      && s.Guard.Escort.hops_done = List.length itinerary - 1)

let test_ag_shell_runs_all_code () =
  let net, k = mk_kernel () in
  let bc = Briefcase.create () in
  Folder.replace
    (Briefcase.folder bc Briefcase.code_folder)
    [ "folder put OUT 1"; "folder put OUT 2"; "folder put OUT 3" ];
  Kernel.launch k ~site:0 ~contact:"ag_shell" bc;
  Net.run net;
  check Alcotest.(list string) "all snippets ran" [ "1"; "2"; "3" ]
    (Folder.to_list (Briefcase.folder bc "OUT"))

let test_rexec_missing_host_errors () =
  let net, k = mk_kernel () in
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.contact_folder "noop";
  Kernel.launch k ~site:0 ~contact:"rexec" bc;
  Net.run ~until:2.0 net;
  check Alcotest.int "death on missing HOST" 1 (Kernel.deaths k)

let test_rexec_unknown_host_errors () =
  let net, k = mk_kernel () in
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.host_folder "atlantis";
  Briefcase.set bc Briefcase.contact_folder "noop";
  Kernel.launch k ~site:0 ~contact:"rexec" bc;
  Net.run ~until:2.0 net;
  check Alcotest.int "death on unknown host" 1 (Kernel.deaths k)

let test_dispatch_from_script () =
  let net, k = mk_kernel () in
  Kernel.install_script k "reporter"
    ~code:{|
      folder put REPORT "from [host]"
      dispatch line-2 filer
    |};
  Kernel.launch k ~site:0 ~contact:"reporter" (Briefcase.create ());
  Net.run ~until:5.0 net;
  check Alcotest.(list string) "report filed remotely" [ "from line-0" ]
    (Cabinet.elements (Kernel.cabinet k 2) "REPORT");
  check Alcotest.int "no deaths" 0 (Kernel.deaths k)

let test_dispatch_unknown_host_is_script_error () =
  let net, k = mk_kernel () in
  Kernel.install_script k "bad" ~code:"dispatch atlantis filer";
  Kernel.install_script k "careful" ~code:"catch {dispatch atlantis filer} m; folder set E $m";
  Kernel.launch k ~site:0 ~contact:"bad" (Briefcase.create ());
  let bc = Briefcase.create () in
  Kernel.launch k ~site:0 ~contact:"careful" bc;
  Net.run ~until:5.0 net;
  check Alcotest.int "uncaught error kills" 1 (Kernel.deaths k);
  Alcotest.(check bool) "catchable from script" true (Briefcase.find_opt bc "E" <> None)

let test_work_advances_time () =
  let net, k = mk_kernel () in
  Kernel.install_script k "worker" ~code:"work 2.5; cabinet put DONE [now]";
  Kernel.launch k ~site:0 ~contact:"worker" (Briefcase.create ());
  Net.run ~until:10.0 net;
  match Cabinet.elements (Kernel.cabinet k 0) "DONE" with
  | [ time ] ->
    Alcotest.(check bool) "time passed" true (float_of_string time >= 2.5)
  | _ -> Alcotest.fail "worker did not finish"

let () =
  Alcotest.run "core"
    [
      ( "folder",
        [
          Alcotest.test_case "stack" `Quick test_folder_stack;
          Alcotest.test_case "queue" `Quick test_folder_queue;
          Alcotest.test_case "mixed ends" `Quick test_folder_mixed_ends;
          Alcotest.test_case "byte accounting" `Quick test_folder_bytes;
          Alcotest.test_case "copy isolation" `Quick test_folder_copy_isolated;
          Alcotest.test_case "misc" `Quick test_folder_misc;
          test_folder_queue_property;
          test_folder_model;
        ] );
      ( "briefcase",
        [
          test_bc_serialize_roundtrip;
          test_bc_byte_size_exact;
          Alcotest.test_case "basics" `Quick test_bc_basics;
          Alcotest.test_case "deep copy" `Quick test_bc_copy_deep;
          Alcotest.test_case "corrupt input" `Quick test_bc_deserialize_corrupt;
          test_bc_deserialize_fuzz;
          Alcotest.test_case "agent stored in folder" `Quick test_bc_agent_in_folder;
          test_bc_wire_canonical;
          test_bc_byte_size_binary;
          Alcotest.test_case "hand-built wire accepted" `Quick test_bc_raw_wire_accepted;
          Alcotest.test_case "rejects trailing bytes" `Quick test_bc_rejects_trailing_bytes;
          Alcotest.test_case "rejects duplicate names" `Quick test_bc_rejects_duplicate_name;
          Alcotest.test_case "rejects out-of-order names" `Quick test_bc_rejects_out_of_order;
          Alcotest.test_case "encoder rejects oversized length" `Quick
            test_codec_rejects_oversized_length;
        ] );
      ( "cabinet",
        [
          Alcotest.test_case "ops + index" `Quick test_cabinet_ops;
          Alcotest.test_case "duplicate elements" `Quick test_cabinet_duplicate_elements;
          Alcotest.test_case "key-value view" `Quick test_cabinet_kv;
          Alcotest.test_case "flush/recover" `Quick test_cabinet_flush_recover;
          Alcotest.test_case "recover without flush" `Quick test_cabinet_recover_without_flush_empty;
          Alcotest.test_case "flush one folder" `Quick test_cabinet_flush_folder;
        ] );
      ( "meet",
        [
          Alcotest.test_case "native" `Quick test_meet_native;
          Alcotest.test_case "unknown agent" `Quick test_meet_unknown_agent_dies;
          Alcotest.test_case "script agent" `Quick test_meet_script_agent;
          Alcotest.test_case "site-scoped agent" `Quick test_site_scoped_agent;
          Alcotest.test_case "nested meet" `Quick test_nested_meet;
          Alcotest.test_case "script error catchable" `Quick test_script_error_catchable_by_caller;
        ] );
      ( "migration",
        [
          Alcotest.test_case "journey on each transport" `Quick test_migration_each_transport;
          Alcotest.test_case "transport byte ordering" `Quick test_transport_cost_ordering;
          Alcotest.test_case "tcp connection reuse" `Quick test_tcp_connection_reuse;
          Alcotest.test_case "horus retransmission" `Quick test_horus_retransmits_through_downtime;
          Alcotest.test_case "tcp drops to down site" `Quick test_tcp_loses_migration_to_down_site;
          Alcotest.test_case "horus survives lossy links" `Quick test_horus_survives_lossy_network;
          Alcotest.test_case "horus delayed ack dedup" `Quick
            test_horus_delayed_ack_no_double_delivery;
        ] );
      ( "message-path",
        [
          Alcotest.test_case "send_briefcase snapshots" `Quick test_send_briefcase_snapshot;
          Alcotest.test_case "rexec snapshots" `Quick test_rexec_snapshot;
          Alcotest.test_case "horus redelivery gets its own copy" `Quick
            test_horus_redelivery_gets_own_copy;
          test_migration_carries_wire_image;
        ] );
      ( "horus-group-mode",
        [
          Alcotest.test_case "group tracks membership" `Quick test_kernel_horus_group_mode;
          Alcotest.test_case "fast retry abort" `Quick
            test_kernel_group_aborts_retries_to_dead_site;
        ] );
      ( "crash-semantics",
        [
          Alcotest.test_case "crash kills sleeper" `Quick test_crash_kills_sleeping_activation;
          Alcotest.test_case "restart does not resurrect" `Quick
            test_crash_then_restart_does_not_resurrect;
          Alcotest.test_case "sleep resumes normally" `Quick test_sleep_survives_when_no_crash;
          Alcotest.test_case "cabinet persistence" `Quick test_cabinet_persistence_across_crash;
          Alcotest.test_case "step limit kills runaway" `Quick test_step_limit_kills_runaway;
        ] );
      ( "determinism",
        [ Alcotest.test_case "whole-system replay" `Quick test_whole_system_determinism ] );
      ( "observability",
        [ Alcotest.test_case "per-agent activity" `Quick test_per_agent_activity ] );
      ( "prelude",
        [
          Alcotest.test_case "travel" `Quick test_prelude_travel;
          Alcotest.test_case "visited + durable notes" `Quick test_prelude_visited_and_notes;
          Alcotest.test_case "send_folder" `Quick test_prelude_send_folder;
        ] );
      ( "itinerary",
        [
          Alcotest.test_case "orders by latency" `Quick test_itinerary_orders_by_latency;
          Alcotest.test_case "beats naive order" `Quick test_itinerary_beats_naive_order;
          Alcotest.test_case "unreachable sites" `Quick test_itinerary_handles_unreachable;
          Alcotest.test_case "folder roundtrip" `Quick test_itinerary_folder_roundtrip;
        ] );
      ( "system-agents",
        [
          Alcotest.test_case "courier" `Quick test_courier_delivers_folder;
          Alcotest.test_case "courier missing folder" `Quick test_courier_missing_folder_errors;
          Alcotest.test_case "diffusion covers graph once" `Quick test_diffusion_reaches_all_once;
          test_diffusion_random_graphs;
          test_guarded_journeys_random_itineraries;
          Alcotest.test_case "ag_shell" `Quick test_ag_shell_runs_all_code;
          Alcotest.test_case "rexec missing HOST" `Quick test_rexec_missing_host_errors;
          Alcotest.test_case "rexec unknown host" `Quick test_rexec_unknown_host_errors;
          Alcotest.test_case "work advances time" `Quick test_work_advances_time;
          Alcotest.test_case "dispatch from script" `Quick test_dispatch_from_script;
          Alcotest.test_case "dispatch bad host" `Quick test_dispatch_unknown_host_is_script_error;
        ] );
    ]
