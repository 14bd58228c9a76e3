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

(* Every prefix of a real program: the scanners index by hand, so an
   off-by-one at a cut shows up here as an exception other than the
   decoders' own.  The programs are the Tcl oracle cases and a CODE
   variant shaped like the agent-tour benchmark's: 48 procs of four shapes
   and a record loop. *)
let agent_code =
  let b = Buffer.create 3072 in
  for i = 0 to 47 do
    let a = 3 + (i * 37 mod 97) and c = i * 211 mod 1000 and m = 101 + (i * 53 mod 900) in
    Buffer.add_string b
      (match i mod 4 with
      | 0 -> Printf.sprintf "proc f%d {x} { expr {($x * %d + %d) %% %d} }\n" i a c m
      | 1 -> Printf.sprintf "proc f%d {x} { expr {($x / %d) %% %d + %d} }\n" i a m c
      | 2 ->
        Printf.sprintf "proc f%d {x} { if {$x > %d} { expr {$x - %d} } else { expr {$x + %d} } }\n"
          i (c * 100) a m
      | _ -> Printf.sprintf "proc f%d {x} { expr {[f%d $x] * %d %% %d} }\n" i (i - 1) a m)
  done;
  Buffer.add_string b
    "set n 0\nforeach rec [cabinet list DATA] {\n  set kv [split $rec =]\n  set v [lindex $kv 1]\n\
    \  set fn f[expr {$v % 48}]\n  set p [$fn $v]\n  if {$p > 200} { incr hits; incr sum $p }\n\
    \  incr n\n}\nfolder put TALLY \"[host]:$n:$hits:$sum\"\n";
  Buffer.contents b

let programs () =
  agent_code
  :: (Sys.readdir "tcl" |> Array.to_list |> List.sort compare
     |> List.filter (fun f -> Filename.check_suffix f ".tcl")
     |> List.map (fun f -> In_channel.with_open_bin (Filename.concat "tcl" f) In_channel.input_all))

(* the expressions of a program: the braced arguments of [expr], the
   conditions of [if], [elseif], [while] and [for], in every body *)
let rec expressions (script : unit Tscript.Ast.script) =
  let text = function
    | Tscript.Ast.Braced { value; _ } | Tscript.Ast.Literal value -> Some (Tscript.Value.to_string value)
    | Tscript.Ast.Frags _ -> None
  in
  let rec in_fragment = function
    | Tscript.Ast.Cmd sub -> expressions sub
    | Tscript.Ast.VarElem (_, index) -> List.concat_map in_fragment index
    | Tscript.Ast.Lit _ | Tscript.Ast.Var _ -> []
  in
  let nested = function
    | Tscript.Ast.Braced { value; _ } -> (
      match Parse.script_result (Tscript.Value.to_string value) with
      | Ok sub -> expressions sub
      | Error _ -> [])
    | Tscript.Ast.Frags frags -> List.concat_map in_fragment frags
    | Tscript.Ast.Literal _ -> []
  in
  List.concat_map
    (fun (cmd : unit Tscript.Ast.command) ->
      let conds =
        match List.map text cmd.words with
        | Some "expr" :: args -> args
        | Some ("if" | "while") :: cond :: _ -> [ cond ]
        | Some "for" :: _ :: cond :: _ -> [ cond ]
        | _ -> []
      in
      let conds =
        conds
        @ List.concat
            (List.mapi
               (fun i w -> if i > 0 && text w = Some "elseif" then [ text (List.nth cmd.words (i + 1)) ] else [])
               cmd.words)
      in
      List.filter_map Fun.id conds @ List.concat_map nested cmd.words)
    script

let prefixes s = List.init (String.length s + 1) (fun k -> String.sub s 0 k)

let test_script_prefixes () =
  List.iter
    (fun src ->
      List.iter
        (fun p ->
          match Parse.script_result p with
          | Ok _ | Error _ -> ()
          | exception e -> Alcotest.failf "%S raised %s" p (Printexc.to_string e))
        (prefixes src))
    (programs ())

let test_expr_prefixes () =
  let exprs =
    List.concat_map
      (fun src -> match Parse.script_result src with Ok s -> expressions s | Error _ -> [])
      (programs ())
  in
  Alcotest.(check bool) "found expressions" true (List.length exprs > 100);
  List.iter
    (fun e ->
      List.iter
        (fun p ->
          match Expr.compile p with
          | _ -> ()
          | exception Expr.Error _ -> ()
          | exception e -> Alcotest.failf "%S raised %s" p (Printexc.to_string e))
        (prefixes e))
    exprs

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
          Alcotest.test_case "Parse.script_result, every prefix" `Quick test_script_prefixes;
          Alcotest.test_case "Expr.compile, every prefix" `Quick test_expr_prefixes;
          Alcotest.test_case "Interp.eval nesting" `Quick test_deep_nesting;
        ] );
    ]
