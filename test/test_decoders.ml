(* Decoder totality: every decoder of text that arrives from outside (a
   folder element, a stored plan, agent source) answers malformed input
   with [Error], [None] or its documented exception, never with an OCaml
   runtime exception such as [Invalid_argument], [Not_found], [Failure] or
   [Stack_overflow].  Inputs are valid encodings with bytes flipped,
   truncated, deleted, duplicated or with separators spliced in, and raw
   random strings; and scripts nested deeper than the stack. *)

module Ecu = Cash.Ecu
module Audit = Cash.Audit
module Ticket = Broker.Ticket
module Weather = Apps.Weather
module Agentmail = Apps.Agentmail
module Chaos = Netsim.Chaos
module Topology = Netsim.Topology
module Parse = Tscript.Parse
module Expr = Tscript.Expr
module Rng = Tacoma_util.Rng

(* characters the wire formats and the two TScript grammars give meaning to *)
let separators =
  [ ':'; ','; '.'; ';'; '|'; '='; ' '; '\n'; '\t'; '-'; '+'; '{'; '}'; '['; ']'; '"'; '\\';
    '$'; '('; ')'; '#'; 'e'; 't'; 's'; '0'; '9'; '\x00'; '\xff' ]

type edit =
  | Flip of int * char
  | Truncate of int
  | Insert of int * char
  | Delete of int * int
  | Duplicate of int * int

let apply_edit s edit =
  let n = String.length s in
  let at i = i mod (n + 1) in
  let span i len = (at i, min len (n - at i)) in
  match edit with
  | Flip (i, c) when n > 0 -> String.mapi (fun j d -> if j = i mod n then c else d) s
  | Flip _ -> s
  | Truncate k -> String.sub s 0 (at k)
  | Insert (i, c) -> String.sub s 0 (at i) ^ String.make 1 c ^ String.sub s (at i) (n - at i)
  | Delete (i, len) ->
    let i, len = span i len in
    String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
  | Duplicate (i, len) ->
    let i, len = span i len in
    String.sub s 0 (i + len) ^ String.sub s i (n - i)

let gen_edit =
  let open QCheck2.Gen in
  let pos = int_bound 200 and len = int_range 1 12 in
  let sep = oneofl separators in
  oneof
    [
      map2 (fun i c -> Flip (i, c)) pos (oneof [ char; sep ]);
      map (fun k -> Truncate k) pos;
      map2 (fun i c -> Insert (i, c)) pos sep;
      map2 (fun i l -> Delete (i, l)) pos len;
      map2 (fun i l -> Duplicate (i, l)) pos len;
    ]

let gen_input seeds =
  let open QCheck2.Gen in
  frequency
    [
      (1, string_size ~gen:char (0 -- 40));
      (1, string_size ~gen:(oneofl separators) (0 -- 24));
      (6, map2 (List.fold_left apply_edit) (oneofl seeds) (list_size (1 -- 4) gen_edit));
    ]

(* [documented] names the one exception a decoder may raise *)
let total ?(documented = fun _ -> false) name seeds decode =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000 ~name ~print:(Printf.sprintf "%S") (gen_input seeds)
       (fun s ->
         match decode s with
         | () -> true
         | exception e when documented e -> true
         | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)))

(* the seeds themselves must decode, or the edits explore nothing *)
let accepts name seeds ok =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun s -> Alcotest.(check bool) (Printf.sprintf "%S decodes" s) true (ok s))
        seeds)

let is_ok = function Ok _ -> true | Error _ -> false

let ecu_seeds =
  List.map Ecu.wire
    [
      { Ecu.amount = 250; serial = String.make 32 'a'; signature = String.make 64 '0' };
      {
        Ecu.amount = 1;
        serial = "0123456789abcdef0123456789abcdef";
        signature = String.make 64 'f';
      };
    ]

let ticket_seeds =
  List.map Ticket.wire
    [
      Ticket.issue ~key:"k" ~service:"compute" ~job:"job-1" ~now:1.0 ~ttl:30.0;
      Ticket.issue ~key:"other" ~service:"s" ~job:"j:2" ~now:0.0 ~ttl:1e6;
    ]

let statement_seeds =
  List.map Audit.statement_wire
    [
      Audit.sign ~key:"k" ~tx:"tx-1" ~action:"pay" ~actor:"alice" ~amount:100 ~at:2.5;
      Audit.sign ~key:"k" ~tx:"tx-2" ~action:"serve" ~actor:"provider-3" ~amount:0 ~at:0.0;
    ]

let weather_seeds =
  List.map Weather.wire
    [
      { Weather.station = 3; hour = 7; temp_c = -12.5; pressure_hpa = 1003.25; wind_ms = 14.0 };
      { Weather.station = 0; hour = 0; temp_c = 0.0; pressure_hpa = 980.0; wind_ms = 0.5 };
    ]

let mail_seeds =
  List.map Agentmail.wire
    [
      {
        Agentmail.from_user = "alice";
        to_user = "bob";
        subject = "storm warning";
        body = "line one\nline two: more";
        sent_at = 3.0;
      };
      { Agentmail.from_user = "b"; to_user = "a"; subject = ""; body = ""; sent_at = 0.0 };
    ]

let span_seeds =
  List.map Obs.Span.to_string
    [ { Obs.Span.trace_id = 3; span_id = 17 }; { Obs.Span.trace_id = 1; span_id = 1 } ]

let chaos_seeds =
  [
    Chaos.to_string
      (Chaos.mixed ~rng:(Rng.create 7L) ~topo:(Topology.ring 5) ~until:600.0 ());
    Chaos.to_string
      [
        Chaos.Crash { site = 1; at = 1.0; downtime = 2.0 };
        Chaos.Crash { site = 2; at = 1.5; downtime = Float.infinity };
        Chaos.Cut { links = [ (0, 1); (1, 2) ]; at = 2.0; duration = 3.0; label = "bisect" };
        Chaos.Loss_burst { link = None; at = 3.0; duration = 1.0; rate = 0.5 };
        Chaos.Loss_burst { link = Some (2, 3); at = 3.5; duration = 1.0; rate = 0.25 };
        Chaos.Degrade
          { link = (3, 4); at = 4.0; duration = 2.0; latency = 8.0; bandwidth = 0.2 };
      ];
  ]

let script_seeds =
  [
    "set a {b c}; puts [expr {$a eq \"x\"}]\n# comment\nproc f {x {y 1}} {return $x}";
    "foreach {k v} $l { set m($k) \"$v\\n\" }; lindex [list a {b c}] end-1";
    "if {[info exists a(1)]} then {incr a(1)} else {set ${b} [f \\\n 2]}";
  ]

let expr_seeds =
  [
    "$a + [f $x] * 2 - -3";
    "max(1, 2.5e3) > $b(1) ? \"yes\" : {no}";
    "!($x in {a b c}) && ~7 % 3 ** 2 || $y ne \"\" ";
    "int(round(1.5)) / ${z} <= fmod(7, 2.0)";
  ]

(* Nesting past the stack, in the script parser, the expression compiler
   or the evaluator, is a script error: [Interp.eval] returns [Error] and
   the interpreter stays usable.  A small stack limit makes 200 000 levels
   overflow on any host; the test restores the limit it found. *)
let test_deep_nesting () =
  let nest n ~opening ~closing inner =
    String.make n opening ^ inner ^ String.make n closing
  in
  let limit = (Gc.get ()).stack_limit in
  Gc.set { (Gc.get ()) with stack_limit = 100_000 };
  Fun.protect
    ~finally:(fun () -> Gc.set { (Gc.get ()) with stack_limit = limit })
    (fun () ->
      let t = Tscript.Interp.create () in
      List.iter
        (fun src ->
          match Tscript.Interp.eval t src with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "200 000 levels did not overflow the stack")
        [
          "expr {" ^ nest 200_000 ~opening:'(' ~closing:')' "1" ^ "}";
          "set x " ^ nest 200_000 ~opening:'[' ~closing:']' "list 1";
        ];
      Alcotest.(check (result string string))
        "usable afterwards" (Ok "3")
        (Tscript.Interp.eval t "expr {1 + 2}"))

let () =
  Alcotest.run "decoders"
    [
      ( "seeds",
        [
          accepts "ecu" ecu_seeds (fun s -> is_ok (Ecu.of_wire s));
          accepts "ticket" ticket_seeds (fun s -> is_ok (Ticket.of_wire s));
          accepts "audit statement" statement_seeds (fun s ->
              is_ok (Audit.statement_of_wire s));
          accepts "weather" weather_seeds (fun s -> is_ok (Weather.of_wire s));
          accepts "agentmail" mail_seeds (fun s -> is_ok (Agentmail.of_wire s));
          accepts "span" span_seeds (fun s -> Option.is_some (Obs.Span.of_string s));
          accepts "chaos plan" chaos_seeds (fun s -> is_ok (Chaos.of_string s));
          accepts "script" script_seeds (fun s -> is_ok (Parse.script_result s));
          accepts "expression" expr_seeds (fun s ->
              match Expr.compile s with _ -> true | exception Expr.Error _ -> false);
        ] );
      ( "total",
        [
          total "Ecu.of_wire" ecu_seeds (fun s -> ignore (Ecu.of_wire s));
          total "Ticket.of_wire" ticket_seeds (fun s -> ignore (Ticket.of_wire s));
          total "Audit.statement_of_wire" statement_seeds (fun s ->
              ignore (Audit.statement_of_wire s));
          total "Weather.of_wire" weather_seeds (fun s -> ignore (Weather.of_wire s));
          total "Agentmail.of_wire" mail_seeds (fun s -> ignore (Agentmail.of_wire s));
          total "Obs.Span.of_string" span_seeds (fun s -> ignore (Obs.Span.of_string s));
          total "Chaos.of_string" chaos_seeds (fun s -> ignore (Chaos.of_string s));
          total "Parse.script_result" script_seeds (fun s -> ignore (Parse.script_result s));
          total "Expr.compile" expr_seeds
            ~documented:(function Expr.Error _ -> true | _ -> false)
            (fun s -> ignore (Expr.compile s));
          Alcotest.test_case "Interp.eval nesting" `Quick test_deep_nesting;
        ] );
    ]
