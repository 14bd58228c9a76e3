(* Tests for the TScript language: values/lists, parser, expr, interpreter
   semantics, and resource metering. *)

module Interp = Tscript.Interp
module Value = Tscript.Value
module Parse = Tscript.Parse
module Strutil = Tscript.Strutil

let check = Alcotest.check

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let eval src =
  let it = Interp.create ~step_limit:5_000_000 () in
  Interp.eval it src

let ok src =
  match eval src with
  | Ok v -> v
  | Error e -> Alcotest.failf "script %S failed: %s" src e

let error src =
  match eval src with
  | Ok v -> Alcotest.failf "script %S unexpectedly returned %S" src v
  | Error e -> e

let expect_cases name cases =
  List.map
    (fun (src, want) ->
      Alcotest.test_case (if String.length src > 40 then String.sub src 0 40 else src) `Quick
        (fun () -> check Alcotest.string name want (ok src)))
    cases

(* cases whose script fails, each with Tcl's error message *)
let expect_errors name cases =
  List.map
    (fun (src, want) ->
      Alcotest.test_case (if String.length src > 40 then String.sub src 0 40 else src) `Quick
        (fun () -> check Alcotest.string name want (error src)))
    cases

(* --- value / list quoting --- *)

let test_list_roundtrip =
  qtest "of_list/to_list roundtrip"
    QCheck2.Gen.(list_size (0 -- 8) (string_size ~gen:printable (0 -- 12)))
    (fun l -> Value.to_list_exn (Value.of_list l) = l)

let test_list_roundtrip_binary =
  qtest "roundtrip with arbitrary bytes"
    QCheck2.Gen.(list_size (0 -- 6) (string_size ~gen:(char_range '\x01' '\xff') (0 -- 10)))
    (fun l -> Value.to_list_exn (Value.of_list l) = l)

let test_list_quoting () =
  check Alcotest.string "spaces braced" "{a b}" (Value.of_list [ "a b" ]);
  check Alcotest.string "empty braced" "{}" (Value.of_list [ "" ]);
  check Alcotest.(list string) "nested braces" [ "{a b}" ] (Value.to_list_exn "{{a b}}");
  check Alcotest.(list string) "quotes" [ "a b" ] (Value.to_list_exn "\"a b\"")

let test_list_malformed () =
  Alcotest.(check bool) "unbalanced brace" true (Result.is_error (Value.to_list "{a"));
  Alcotest.(check bool) "unbalanced quote" true (Result.is_error (Value.to_list "\"a"))

let test_truthy () =
  List.iter
    (fun (s, want) -> Alcotest.(check bool) s want (Value.truthy s))
    [
      ("1", true); ("0", false); ("true", true); ("false", false); ("", false);
      ("no", false); ("yes", true); ("0.0", false); ("2.5", true); ("banana", true);
    ]

let test_of_float () =
  check Alcotest.string "integral float" "2.0" (Value.of_float 2.0);
  check Alcotest.string "fraction" "2.5" (Value.of_float 2.5)

(* --- parser --- *)

let test_parse_comments () =
  check Alcotest.string "comment skipped" "2" (ok "# a comment\nset x 2");
  check Alcotest.string "hash mid-word not comment" "a#b" (ok "set x a#b")

let test_parse_continuation () =
  check Alcotest.string "backslash newline joins" "6" (ok "expr {1 + \\\n 2 + 3}")

let test_parse_nested_brackets () =
  check Alcotest.string "nested cmd subst" "9" (ok "expr {[expr {[expr {1+2}] * 3}]}")

let test_parse_escapes () =
  check Alcotest.string "newline escape" "a\nb" (ok {|set x "a\nb"|});
  check Alcotest.string "dollar escape" "$x" (ok {|set y 1; set z "\$x"|})

let test_parse_errors () =
  Alcotest.(check bool) "unterminated brace" true
    (Result.is_error (Parse.script_result "set x {a"));
  Alcotest.(check bool) "unterminated bracket" true
    (Result.is_error (Parse.script_result "set x [foo"));
  Alcotest.(check bool) "unterminated quote" true
    (Result.is_error (Parse.script_result "set x \"abc"))

let test_parse_empty () =
  check Alcotest.string "empty script" "" (ok "");
  check Alcotest.string "only separators" "" (ok " ;; \n\n ; ")

(* --- expr --- *)

let expr_cases =
  [
    ("expr {1 + 2 * 3}", "7");
    ("expr {(1 + 2) * 3}", "9");
    ("expr {2 ** 10}", "1024");
    ("expr {10 % 3}", "1");
    ("expr {1.5 + 1}", "2.5");
    ("expr {4 / 2}", "2");
    ("expr {5 > 3}", "1");
    ("expr {5 <= 3}", "0");
    ("expr {\"a\" < \"b\"}", "1");
    ("expr {1 == 1.0}", "1");
    ("expr {\"1\" eq \"1.0\"}", "0");
    ("expr {!0}", "1");
    ("expr {~0}", "-1");
    ("expr {1 && 0 || 1}", "1");
    ("expr {abs(-4)}", "4");
    ("expr {int(3.9)}", "3");
    ("expr {round(3.5)}", "4");
    ("expr {sqrt(16)}", "4.0");
    ("expr {max(1, 9, 4)}", "9");
    ("expr {min(2.5, 2)}", "2");
    ("expr {\"b\" in {a b c}}", "1");
    ("expr {\"z\" ni {a b c}}", "1");
    ("set x 4; expr {$x * $x}", "16");
    ("expr {[expr {2+2}] + 1}", "5");
    ("expr {1e3 + 1}", "1001.0");
    (* precedence ladder: ** over * over + over < over == over && over || *)
    ("expr {2 + 3 * 4 ** 2}", "50");
    ("expr {2 ** 3 ** 2}", "512");
    ("expr {10 - 4 - 3}", "3");
    ("expr {100 / 10 / 5}", "2");
    ("expr {1 + 2 < 4 == 1}", "1");
    ("expr {1 || 0 && 0}", "1");
    ("expr {(1 || 0) && 0}", "0");
    ("expr {1 + 1 == 2 && 2 + 2 == 4}", "1");
    (* ternary, including right associativity of the else arm *)
    ("expr {1 ? 2 : 3}", "2");
    ("expr {0 ? 2 : 3}", "3");
    ("expr {1 ? 0 : 1 ? 2 : 3}", "0");
    ("expr {0 ? 1 : 0 ? 2 : 3}", "3");
    ("set x 4; expr {$x > 3 ? \"big\" : \"small\"}", "big");
    ("expr {1 < 2 ? 10 + 1 : 20 + 2}", "11");
    (* int/float promotion and formatting round-trips *)
    ("expr {1 + 1.0}", "2.0");
    ("expr {1 / 2.0}", "0.5");
    ("expr {2.0 * 2}", "4.0");
    ("expr {5 % 3 + 0.5}", "2.5");
    ("expr {int(2.0) + 1}", "3");
    ("expr {1.0 == 1}", "1");
    ("expr {[expr {1.5 * 2}] + 0.5}", "3.5");
    ("expr {[expr {10 / 4.0}] * 4}", "10.0");
    ("expr {[expr {2.0}] == 2}", "1");
  ]

(* fuzz: random integer expression trees, rendered to expr syntax and
   evaluated against an OCaml reference with Tcl division semantics *)
type iexpr =
  | Lit of int
  | Add of iexpr * iexpr
  | Sub of iexpr * iexpr
  | Mul of iexpr * iexpr
  | Div of iexpr * iexpr
  | Mod of iexpr * iexpr
  | Neg of iexpr
  | Cmp of iexpr * iexpr (* < as 0/1 *)

let rec render = function
  | Lit n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (render a) (render b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (render a) (render b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (render a) (render b)
  | Div (a, b) -> Printf.sprintf "(%s / %s)" (render a) (render b)
  | Mod (a, b) -> Printf.sprintf "(%s %% %s)" (render a) (render b)
  | Neg a -> Printf.sprintf "(- %s)" (render a)
  | Cmp (a, b) -> Printf.sprintf "(%s < %s)" (render a) (render b)

exception Ref_div_zero

let rec reference = function
  | Lit n -> n
  | Add (a, b) -> reference a + reference b
  | Sub (a, b) -> reference a - reference b
  | Mul (a, b) -> reference a * reference b
  | Div (a, b) ->
    let x = reference a and y = reference b in
    if y = 0 then raise Ref_div_zero
    else if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1
    else x / y
  | Mod (a, b) ->
    let x = reference a and y = reference b in
    if y = 0 then raise Ref_div_zero
    else
      let m = x mod y in
      if m <> 0 && (m < 0) <> (y < 0) then m + y else m
  | Neg a -> -reference a
  | Cmp (a, b) -> if reference a < reference b then 1 else 0

let iexpr_gen =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then map (fun i -> Lit i) (int_range (-50) 50)
         else
           let sub = self (n / 2) in
           oneof
             [
               map (fun i -> Lit i) (int_range (-50) 50);
               map2 (fun a b -> Add (a, b)) sub sub;
               map2 (fun a b -> Sub (a, b)) sub sub;
               map2 (fun a b -> Mul (a, b)) sub sub;
               map2 (fun a b -> Div (a, b)) sub sub;
               map2 (fun a b -> Mod (a, b)) sub sub;
               map (fun a -> Neg a) sub;
               map2 (fun a b -> Cmp (a, b)) sub sub;
             ])

let test_expr_fuzz_vs_reference =
  qtest ~count:500 "random integer expressions match the reference evaluator" iexpr_gen
    (fun e ->
      let src = "expr {" ^ render e ^ "}" in
      match (reference e, eval src) with
      | expected, Ok got -> got = string_of_int expected
      | exception Ref_div_zero -> (
        match eval src with Error _ -> true | Ok _ -> false)
      | _, Error _ -> false)

(* The unboxed path against the general one: the same random integer
   expression tree, its operands written [$v] (a pure tree, evaluated on
   ints first) and [\[set v\]] (a command substitution is never pure, so
   every node takes [Expr]'s general path).  The variables hold integers in
   several spellings, floats, words, or nothing, so the unboxed path must
   give up exactly where the general one errors or leaves the integers. *)
type ptree = Pvar of int | Pconst of int | Pop of string * ptree * ptree

let pure_ops = [ "+"; "-"; "*"; "/"; "%"; "**"; "<"; "<="; ">"; ">="; "=="; "!=" ]
let pvars = 4

let rec prender ~operand = function
  | Pvar i -> operand i
  | Pconst k -> string_of_int k
  | Pop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (prender ~operand a) op (prender ~operand b)

let ptree_gen =
  let open QCheck2.Gen in
  let leaf = oneof [ map (fun i -> Pvar i) (int_bound (pvars - 1)); map (fun k -> Pconst k) (int_bound 12) ] in
  sized_size (int_bound 12)
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (4, map3 (fun op a b -> Pop (op, a, b)) (oneofl pure_ops) (self (n / 2)) (self (n / 2)));
             ])

(* [None] leaves the variable unset *)
let pvalue_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun i -> Some (string_of_int i)) (int_range (-40) 40));
        (2, pure (Some "0"));
        (1, map (fun i -> Some (string_of_int i)) (oneofl [ max_int; min_int; 1 lsl 40 ]));
        (1, oneofl [ Some " 12 "; Some "0x1f"; Some "-0x1f"; Some "1.5"; Some "1e3"; Some "abc"; None ]);
      ])

let test_unboxed_agrees =
  qtest ~count:3000 "unboxed and general paths agree"
    QCheck2.Gen.(pair ptree_gen (array_size (pure pvars) pvalue_gen))
    (fun (tree, values) ->
      let run operand =
        let it = Interp.create () in
        Array.iteri
          (fun i v -> Option.iter (fun v -> Interp.set_var it (Printf.sprintf "v%d" i) v) v)
          values;
        let src = prender ~operand tree in
        (* the same tree as a value and as a condition *)
        (Interp.eval it ("expr {" ^ src ^ "}"), Interp.eval it ("if {" ^ src ^ "} {set r t} {set r f}"))
      in
      let fast = run (Printf.sprintf "$v%d") and general = run (Printf.sprintf "[set v%d]") in
      fast = general)

let test_unboxed_cases () =
  let it = Interp.create () in
  ignore (Interp.eval it "set x 7; set y -2; set f 1.5; set w abc; set z 0");
  List.iter
    (fun (src, want) ->
      check Alcotest.(result string string) src want (Interp.eval it ("expr {" ^ src ^ "}")))
    [
      ("$x / $y", Ok "-4");
      ("$x % $y", Ok "-1");
      ("-$x / 2", Ok "-4");
      ("$x ** $y", Ok "0");
      ("$y ** 3", Ok "-8");
      ("$x + $f", Ok "8.5");
      ("$x < $w", Ok "1");
      ("$x / $z", Error "expr: division by zero");
      ("$x % $z", Error "expr: modulo by zero");
      ("$z ** $y", Error "expr: exponentiation of zero by negative power");
      ("$w + 1", Error "expr: expected number, got \"abc\"");
      ("$f % 2", Error "expr: can't use floating-point value as operand of \"%\"");
      ("$x % $f", Error "expr: can't use floating-point value as operand of \"%\"");
      ("$f % $z", Error "expr: can't use floating-point value as operand of \"%\"");
      ("~$f", Error "expr: can't use floating-point value as operand of \"~\"");
      ("int($f) % 2", Ok "1");
      ("~$y", Ok "1");
      ("$nope + 1", Error "can't read \"nope\": no such variable");
    ]

let test_expr_division_by_zero () =
  let e = error "expr {1 / 0}" in
  Alcotest.(check bool) "error reported" true (String.length e > 0)

let test_expr_malformed () =
  List.iter
    (fun src -> ignore (error src))
    [ "expr {1 +}"; "expr {(1}"; "expr {foo(1)}"; "expr {$nope + 1}" ]

(* Short-circuit &&/||/?: must not evaluate the skipped arm's [cmd]
   operands — and must keep skipping when the same expression comes back
   compiled from its word's slot (second evaluation in the same
   interpreter), since laziness lives in the AST, not the compiler. *)
let test_expr_short_circuit_effects () =
  let it = Interp.create () in
  let run src =
    match Interp.eval it src with
    | Ok v -> v
    | Error e -> Alcotest.failf "eval %S: %s" src e
  in
  ignore (run "proc bump {} {global n; incr n; return 1}");
  ignore (run "set n 0");
  (* cold path: first compile of each expression *)
  check Alcotest.string "|| skips rhs (cold)" "1" (run "expr {1 || [bump]}");
  check Alcotest.string "&& skips rhs (cold)" "0" (run "expr {0 && [bump]}");
  check Alcotest.string "?: skips else arm (cold)" "7" (run "expr {1 ? 7 : [bump]}");
  check Alcotest.string "?: skips then arm (cold)" "8" (run "expr {0 ? [bump] : 8}");
  check Alcotest.string "no side effects after cold pass" "0" (run "set n");
  (* cached-AST path: same sources again *)
  check Alcotest.string "|| skips rhs (cached)" "1" (run "expr {1 || [bump]}");
  check Alcotest.string "&& skips rhs (cached)" "0" (run "expr {0 && [bump]}");
  check Alcotest.string "?: skips else arm (cached)" "7" (run "expr {1 ? 7 : [bump]}");
  check Alcotest.string "?: skips then arm (cached)" "8" (run "expr {0 ? [bump] : 8}");
  check Alcotest.string "no side effects after cached pass" "0" (run "set n");
  let p = Interp.profile it in
  Alcotest.(check bool) "cached pass actually hit the expr cache" true
    (p.Interp.expr_hits >= 4);
  (* arms that must run do run, on both paths *)
  check Alcotest.string "|| evaluates rhs when needed" "1" (run "expr {0 || [bump]}");
  check Alcotest.string "&& evaluates rhs when needed" "1" (run "expr {1 && [bump]}");
  check Alcotest.string "both bumps happened" "2" (run "set n");
  check Alcotest.string "|| evaluates rhs (cached)" "1" (run "expr {0 || [bump]}");
  check Alcotest.string "bumped again through the cache" "3" (run "set n")

let test_profile_counters () =
  let it = Interp.create () in
  let run src =
    match Interp.eval it src with
    | Ok v -> v
    | Error e -> Alcotest.failf "eval %S: %s" src e
  in
  ignore (run "set i 0; while {$i < 10} {incr i}");
  let p = Interp.profile it in
  Alcotest.(check bool) "commands counted" true (p.Interp.commands > 10);
  Alcotest.(check bool) "loop condition compiled once" true (p.Interp.expr_misses >= 1);
  ignore (run "set i 0; while {$i < 10} {incr i}");
  let p2 = Interp.profile it in
  Alcotest.(check bool) "second run hits the parse cache" true
    (p2.Interp.parse_hits > p.Interp.parse_hits);
  Alcotest.(check bool) "second run hits the expr cache" true
    (p2.Interp.expr_hits > p.Interp.expr_hits);
  Alcotest.(check int) "second run compiles nothing new" p.Interp.expr_misses
    p2.Interp.expr_misses

(* A caches value shared between interpreters (the kernel does this per
   simulation) lets a second interpreter reuse everything the first one
   compiled. *)
let test_shared_caches_across_interpreters () =
  let caches = Interp.create_caches () in
  let script = "set total 0; set i 0; while {$i < 5} {incr total $i; incr i}; set total" in
  let run () =
    let it = Interp.create ~caches () in
    (match Interp.eval it script with
    | Ok v -> check Alcotest.string "loop result" "10" v
    | Error e -> Alcotest.failf "eval: %s" e);
    Interp.profile it
  in
  let first = run () in
  let second = run () in
  Alcotest.(check bool) "first interpreter compiles" true (first.Interp.expr_misses >= 1);
  Alcotest.(check int) "second interpreter compiles no expressions" 0
    second.Interp.expr_misses;
  Alcotest.(check int) "second interpreter parses nothing" 0 second.Interp.parse_misses;
  Alcotest.(check bool) "second interpreter hits the shared expr cache" true
    (second.Interp.expr_hits >= 1);
  Alcotest.(check bool) "second interpreter hits the shared parse cache" true
    (second.Interp.parse_hits >= 1)

(* the parse cache holds 512 scripts; the 513th distinct one evicts the
   least recently used *)
let test_cache_eviction_counted () =
  let it = Interp.create () in
  for i = 1 to 513 do
    match Interp.eval it (Printf.sprintf "expr {%d + %d}" i i) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "eval: %s" e
  done;
  let p = Interp.profile it in
  Alcotest.(check int) "parse evictions observed" 1 p.Interp.parse_evictions;
  (* evicted entries recompile cleanly *)
  match Interp.eval it "expr {1 + 1}" with
  | Ok v -> check Alcotest.string "recompiled after eviction" "2" v
  | Error e -> Alcotest.failf "eval after eviction: %s" e

(* --- interpreter semantics --- *)

let semantics_cases =
  [
    ("set x 5", "5");
    ("set x 5; set x", "5");
    ("set x a; set y b; set z $x$y", "ab");
    ("set x 1; incr x", "2");
    ("set x 1; incr x 10", "11");
    ("incr fresh", "1");
    ("proc two {} {return 2}; two", "2");
    ("proc id {v} {return $v}; id hello", "hello");
    ("proc d {a {b def}} {return $a-$b}; d 1", "1-def");
    ("proc d {a {b def}} {return $a-$b}; d 1 2", "1-2");
    ("proc v {args} {llength $args}; v a b c", "3");
    ("proc f {} {global g; set g 10}; set g 1; f; set g", "10");
    ("proc f {} {set g 10}; set g 1; f; set g", "1");
    ("set r {}; foreach {a b} {1 2 3 4} {lappend r $b$a}; set r", "21 43");
    ("set i 0; while {$i < 3} {incr i}; set i", "3");
    ("set r {}; for {set i 0} {$i<5} {incr i} {if {$i==2} continue; if {$i==4} break; lappend r $i}; set r",
      "0 1 3");
    ("catch {set novar}", "1");
    ("catch {expr {1+1}} out; set out", "2");
    ("proc f {} {error inner}; catch {f} m; set m", "inner");
    ("eval set x 7; set x", "7");
    ("string length hello", "5");
    ("string match {a*c} abbc", "1");
    ("string match {a?c} abc", "1");
    ("string match {[a-c]x} dx", "0");
    ("string match {a\\*} a*", "1");
    ("string match {[!a]} b", "0");
    ("lsort -decreasing {b c a}", "c b a");
    ("lsort -real {2.5 -1 1e1}", "-1 2.5 1e1");
    ("lsort -integer -unique {1 01 2}", "01 2");
    ("lsort -ascii -increasing {b a}", "a b");
    ("catch {lsort -dictionary {a10 a9}} m; set m",
      "bad option \"-dictionary\": must be -ascii, -decreasing, -increasing, -integer, -real, or -unique");
    ("append x a b c", "abc");
    ("set l {3 1 2}; lsort $l", "1 2 3");
    ("lsort -integer {10 9 2}", "2 9 10");
    ("lsort -unique {b a b a}", "a b");
    ("lindex {a b c} 1", "b");
    ("lindex {a b c} end", "c");
    (* out-of-range indices yield the empty string, not an engine crash *)
    ("lindex {a b c} 5", "");
    ("catch {lindex {a b} 9} r; set r", ""); (* no error to catch *)
    ("lassign {x} a b; list $a $b", "x {}");
    ("lassign {} a", "");
    ("set p 0; eval {set p 3} {; incr p}", "4");
    ("eval [list set y {a b}]; llength $y", "2");
    ("lreverse {1 2 3}", "3 2 1");
    ("lassign {1 2 3} a b; expr {$a + $b}", "3");
    ("lassign {1 2 3} a b", "3");
    ("concat {a b} {c} {} {d}", "a b c d");
    ("lrange {a b c d e} 1 3", "b c d");
    ("lrange {a b c d e} 2 end", "c d e");
    ("info exists nope", "0");
    ("set v 1; info exists v", "1");
    ("proc p {x} {return $x}; info args p", "x");
    ("if {0} {set a 1} elseif {0} {set a 2} else {set a 3}", "3");
    ("if {0} then {set a 1} else {set a 2}", "2");
    ("join [split 1:2:3 :] -", "1-2-3");
    ("llength [split {} :]", "0");
    (* lsort options TScript does not implement are errors, not ignored *)
    ("catch {lsort -nocase {b A}} m; set m",
      "bad option \"-nocase\": must be -ascii, -decreasing, -increasing, -integer, -real, or -unique");
    ("catch {lsort -command cmp {b a}} m; set m",
      "bad option \"-command\": must be -ascii, -decreasing, -increasing, -integer, -real, or -unique");
    ("catch {lsort -index 1 {{a 2} {b 1}}} m; set m",
      "bad option \"-index\": must be -ascii, -decreasing, -increasing, -integer, -real, or -unique");
    ("catch {lsort -integer {2 x}} m; set m", "expected integer but got \"x\"");
    ("catch {lsort -real {a}} m; set m", "expected floating-point number but got \"a\"");
    ("catch {lsort} m; set m", "wrong # args: should be \"lsort ?-option value ...? list\"");
    ("lsort -unique", "-unique");
    ("string length {}", "0");
    ("lassign {a b c} x; set x", "a");
    ("lsort -decreasing -unique {b a b}", "b a");
    ("lmap x {1 2 3} {expr {$x * 2}}", "2 4 6");
    ("lmap {a b} {1 2 3 4} {expr {$a + $b}}", "3 7");
    ("lmap x {1 2 3 4} {if {$x == 2} continue; expr {$x}}", "1 3 4");
    ("catch {string first b abcb} m; set m", "unsupported string subcommand \"first\" or wrong # args");
    (* arrays *)
    ("set a(x) 1; set a(y) 2; expr {$a(x) + $a(y)}", "3");
    ("set a(x) hello; set a(x)", "hello");
    ("set i 2; set a(2) yes; set a($i)", "yes");
    ("set i 2; set a(2) 10; expr {$a($i) * 2}", "20");
    ("set a(k1) 1; set a(k2) 2; array size a", "2");
    ("set a(k1) 1; set a(k2) 2; array names a", "k1 k2");
    ("set a(k1) 1; set a(zz) 2; array names a k*", "k1");
    ("array set a {x 1 y 2}; set a(y)", "2");
    ("set a(x) 1; array get a", "x 1");
    ("array exists a", "0");
    ("set a(x) 1; array exists a", "1");
    ("set s 5; array exists s", "0");
    ("set a(x) 1; info exists a(x)", "1");
    ("set a(x) 1; info exists a(y)", "0");
    ("set a(x) 1; info exists a", "1");
    ("set a(x) 1; unset a(x); array size a", "0");
    ("set a(x) 1; array unset a; array exists a", "0");
    ("set a(x) 1; incr a(x) 4", "5");
    ("lappend a(l) p q; set a(l)", "p q");
    ("append a(s) foo bar", "foobar");
    ("set a() empty-index; set a()", "empty-index");
    ("proc f {} {set a(x) local; array size a}; set a(x) 1; set a(y) 2; concat [f] [array size a]",
      "1 2");
    ("proc f {} {global a; set a(x)}; set a(x) fromglobal; f", "fromglobal");
    ("llength [split {} { }]", "0");
    ("split {} ,", "");
    ("split a,,b ,", "a {} b");
    ("set r {}; foreach a {1 2} b {x y z} { append r $a$b, }; set r", "1x,2y,z,");
    ("set r {}; foreach {a b} {1 2 3} c {x} { append r $a.$b.$c, }; set r", "1.2.x,3..,");
    ( "set r {}; foreach a {1 2 3} b {x y} { if {$a == 2} continue; append r $a$b }; set r",
      "1x3" );
    ("lmap a {1 2} b {x y} { set _ $a$b }", "1x 2y");
  ]

let upvar_cases =
  [
    (* pass-by-name procs *)
    ("proc bump {vname} {upvar 1 $vname v; incr v}; set x 5; bump x; set x", "6");
    ("proc put2 {vname} {upvar $vname v; set v 2}; set y 0; put2 y; set y", "2");
    ("proc swap {an bn} {upvar 1 $an a $bn b; set tmp $a; set a $b; set b $tmp};\n\
      set p 1; set q 2; swap p q; list $p $q", "2 1");
    (* two levels up *)
    ("proc inner {} {upvar 2 top v; set v deep}; proc outer {} {inner};\n\
      set top shallow; outer; set top", "deep");
    (* #0 targets the globals from any depth *)
    ("proc f {} {upvar #0 g v; set v global-hit}; proc wrap {} {f}; set g x; wrap; set g",
      "global-hit");
    (* upvar'd arrays *)
    ("proc fill {aname} {upvar 1 $aname a; set a(k) filled}; fill arr; set arr(k)", "filled");
    (* uplevel evaluates in the caller's scope *)
    ("proc setter {} {uplevel 1 {set local 42}}; proc caller {} {setter; set local}; caller",
      "42");
    ("proc g {} {uplevel #0 {set gv 7}}; g; set gv", "7");
  ]

(* a level past the global scope is an error, relative or absolute, as in
   Tcl 8.6; so is the default level 1 at top level *)
let upvar_errors =
  [
    ("set r [uplevel 1 expr 1 + 1]; set r", "bad level \"1\"");
    ("uplevel {set x 1}", "bad level \"1\"");
    ("upvar y v", "bad level \"1\"");
    ("proc f {} {upvar 3 y v}; f", "bad level \"3\"");
    ("proc f {} {uplevel #2 {set y 1}}; f", "bad level \"#2\"");
    ("proc f {} {upvar x y z}; f", "bad level \"x\"");
    ("proc f {} {uplevel 1}; f", "wrong # args: should be \"uplevel ?level? command ?arg ...?\"");
  ]

let test_array_scalar_collision () =
  ignore (error "set s 5; set s(x) 1");
  ignore (error "set a(x) 1; set a 5");
  ignore (error "set a(x) 1; puts $a")

let scoping_cases =
  [
    (* locals do not leak out of procs *)
    ("proc f {} {set hidden 1}; f; info exists hidden", "0");
    (* arguments shadow globals *)
    ("set x global; proc f {x} {set x}; f arg", "arg");
    (* recursion keeps frames separate *)
    ("proc down {n} {if {$n == 0} {return 0}; set mine $n; down [expr {$n - 1}]; set mine};\n\
      down 3", "3");
    (* catch inside a proc traps errors from deeper procs *)
    ("proc deep {} {error bottom}; proc mid {} {deep}; proc top {} {catch {mid} e; set e}; top",
      "bottom");
    (* return propagates only one level *)
    ("proc inner {} {return early; set never 1}; proc outer {} {inner; return late}; outer",
      "late");
    (* break crosses eval but is caught by the loop *)
    ("set n 0; foreach x {1 2 3} {incr n; if {$x == 2} {eval break}}; set n", "2");
    (* proc redefinition replaces *)
    ("proc f {} {return a}; proc f {} {return b}; f", "b");
    (* variable traces of loops: foreach leaves the variable set *)
    ("foreach v {1 2 3} {}; set v", "3");
    (* nested command substitution inside braces is deferred *)
    ("proc f {} {return {[not evaluated]}}; f", "[not evaluated]");
    (* expr on proc results *)
    ("proc two {} {return 2}; expr {[two] ** [two]}", "4");
    (* a braced name(index) is an element, its index taken as written *)
    ("set a(1) x; set r ${a(1)}", "x");
    ("set i 1; set a(\\$i) y; set r ${a($i)}", "y");
  ]

let test_unknown_command () =
  let e = error "definitely_not_a_command 1 2" in
  Alcotest.(check bool) "mentions name" true
    (Option.is_some
       (String.index_opt e 'd')
    && String.length e > 0)

let test_wrong_arity_message () =
  let e = error "proc f {a b} {}; f 1" in
  Alcotest.(check bool) "usage message" true
    (String.length e > 0
    && Option.is_some (String.index_opt e '#'))

(* A call through a name built at run time evaluates its words into a new
   frame's cells when the name is a proc of that arity, and hands any other
   command the argument list: either way the result, the error text and
   the steps are those of the same call by literal name. *)
let test_runtime_name_calls () =
  let procs =
    "proc p0 {} {return zero}; proc p2 {a b} {list $a $b}; \
     proc popt {a {b B}} {list $a $b}; proc pargs {a args} {list $a $args}; \
     proc pdup {a a} {set a}; "
  in
  let run src =
    let it = Interp.create ~step_limit:100_000 () in
    let r = Interp.eval it (procs ^ src) in
    (r, Interp.steps_used it)
  in
  let show (r, steps) =
    (match r with Ok v -> "ok " ^ v | Error e -> "error " ^ e) ^ Printf.sprintf " (%d steps)" steps
  in
  List.iter
    (fun name ->
      List.iter
        (fun args ->
          let literal = run (String.concat " " (name :: args)) in
          let by_var = run (Printf.sprintf "set n %s; $n %s" name (String.concat " " args)) in
          let built = run (Printf.sprintf "set n %s; [set n] %s" name (String.concat " " args)) in
          check Alcotest.string (name ^ " by variable") (show literal)
            (show (fst by_var, snd by_var - 1));
          check Alcotest.string (name ^ " by built name") (show literal)
            (show (fst built, snd built - 2)))
        [ []; [ "x" ]; [ "x"; "y" ]; [ "x"; "y"; "z" ]; [ "[incr i]"; "$i" ] ])
    [ "p0"; "p2"; "popt"; "pargs"; "pdup"; "list"; "llength"; "nosuch" ]

let test_recursion_depth_limited () =
  let e = error "proc loop {} {loop}; loop" in
  Alcotest.(check bool) "depth error" true (String.length e > 0)

let test_break_outside_loop () = ignore (error "break")
let test_continue_outside_loop () = ignore (error "continue")

let test_return_at_toplevel () = check Alcotest.string "return value" "42" (ok "return 42")

let test_host_command () =
  let it = Interp.create () in
  Interp.register it "double" (fun _ args ->
      match args with
      | [ v ] -> (
        match Value.int_of v with
        | Some i -> Interp.Text (Tacoma_util.Decimal.of_int (2 * i))
        | None -> raise (Interp.Error_exc "not a number"))
      | _ -> raise (Interp.Error_exc "wrong # args"));
  (match Interp.eval it "double 21" with
  | Ok v -> check Alcotest.string "host result" "42" v
  | Error e -> Alcotest.failf "host command failed: %s" e);
  (match Interp.eval it "catch {double x} m; set m" with
  | Ok v -> check Alcotest.string "host error catchable" "not a number" v
  | Error e -> Alcotest.failf "catch failed: %s" e);
  Interp.unregister it "double";
  match Interp.eval it "double 2" with
  | Ok _ -> Alcotest.fail "unregistered command still callable"
  | Error _ -> ()

let test_global_vars_api () =
  let it = Interp.create () in
  Interp.set_var it "x" "10";
  (match Interp.eval it "expr {$x + 1}" with
  | Ok v -> check Alcotest.string "var visible" "11" v
  | Error e -> Alcotest.failf "%s" e);
  check Alcotest.(option string) "get_var" (Some "10") (Interp.get_var_opt it "x");
  Interp.unset_var it "x";
  check Alcotest.(option string) "unset" None (Interp.get_var_opt it "x")

let test_output_capture () =
  let it = Interp.create () in
  ignore (Interp.eval it "puts one; puts -nonewline two");
  check Alcotest.string "output" "one\ntwo" (Interp.take_output it);
  check Alcotest.string "cleared" "" (Interp.take_output it)

let test_output_redirect () =
  let it = Interp.create () in
  let sink = Buffer.create 16 in
  Interp.set_output it (Buffer.add_string sink);
  ignore (Interp.eval it "puts routed");
  check Alcotest.string "redirected" "routed\n" (Buffer.contents sink);
  check Alcotest.string "internal buffer untouched" "" (Interp.take_output it)

let test_steps_counted () =
  let it = Interp.create () in
  ignore (Interp.eval it "set a 1; set b 2; set c 3");
  Alcotest.(check bool) "steps > 0" true (Interp.steps_used it >= 3)

let test_step_limit_aborts () =
  let it = Interp.create ~step_limit:50 () in
  match Interp.eval it "while {1} {set x 1}" with
  | exception Interp.Resource_exhausted -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Resource_exhausted"

let test_step_limit_not_catchable () =
  let it = Interp.create ~step_limit:50 () in
  match Interp.eval it "catch {while {1} {set x 1}}; set done 1" with
  | exception Interp.Resource_exhausted -> ()
  | Ok _ | Error _ -> Alcotest.fail "catch must not trap exhaustion"

let test_empty_loop_metered () =
  let it = Interp.create ~step_limit:200 () in
  match Interp.eval it "while {1} {}" with
  | exception Interp.Resource_exhausted -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty loop must still consume budget"

let test_call_api () =
  let it = Interp.create () in
  ignore (Interp.eval it "proc add {a b} {expr {$a + $b}}");
  check Alcotest.string "call proc" "7" (Interp.call it "add" [ "3"; "4" ])

(* a list reply reads as the list [Value.of_list] renders, whether the
   script iterates over it, indexes it or takes its string *)
let test_items_reply () =
  let it = Interp.create () in
  let items = [ "a b"; "c"; "{"; ""; "#x"; "d\\" ] in
  Interp.register it "items" (fun _ _ -> Interp.Items items);
  Interp.register it "none" (fun _ _ -> Interp.Items []);
  let run src =
    match Interp.eval it src with Ok v -> v | Error e -> Alcotest.failf "eval %S: %s" src e
  in
  let rendered = Value.of_list items in
  check Alcotest.string "string" rendered (run "items");
  check Alcotest.string "foreach" rendered (run "set r {}; foreach x [items] {lappend r $x}; set r");
  check Alcotest.string "llength" "6" (run "llength [items]");
  check Alcotest.string "lindex" "a b" (run "lindex [items] 0");
  check Alcotest.string "string after foreach" rendered (run "set l [items]; foreach x $l {}; set l");
  check Alcotest.string "empty" "" (run "none");
  check Alcotest.string "empty foreach" "0" (run "set n 0; foreach x [none] {incr n}; set n")

(* --- compile slots ---

   Literal braced bodies and expressions keep their compiled form on the
   shared AST.  These tests pin what the slots must not change: results,
   steps, and the cache counters, where a slot reuse is a hit. *)

type outcome = Done of string | Failed of string | Exhausted

let run_outcome it src =
  let outcome =
    match Interp.eval it src with
    | Ok v -> Done v
    | Error e -> Failed e
    | exception Interp.Resource_exhausted -> Exhausted
  in
  let p = Interp.profile it in
  ( outcome,
    Interp.take_output it,
    Interp.steps_used it,
    ( p.Interp.commands,
      p.Interp.proc_calls,
      p.Interp.max_depth,
      p.Interp.parse_hits + p.Interp.parse_misses,
      p.Interp.expr_hits + p.Interp.expr_misses,
      p.Interp.parse_evictions ) )

(* Scripts over the control builtins that use slots, with literal and
   run-time bodies, compile errors and a bounded budget. *)
let gen_slot_script =
  let open QCheck2.Gen in
  let var = oneofl [ "a"; "b"; "c" ] in
  (* the bracketed atoms put command substitutions inside expressions,
     including one that is not a script: it must fail on every evaluation *)
  let atom =
    oneof
      [
        map string_of_int (int_range 0 4);
        map (fun v -> "$" ^ v) var;
        map (fun v -> "[incr " ^ v ^ "]") var;
        map (fun v -> "[f $" ^ v ^ "]") var;
        oneofl [ "[expr {$a + [incr c]}]"; "[string length \"x]" ];
      ]
  in
  let cond =
    oneof
      [
        map3 (fun x op y -> Printf.sprintf "{%s %s %s}" x op y) atom
          (oneofl [ "<"; "<="; "=="; "!="; ">" ]) atom;
        oneofl [ "1"; "0"; "{$a <}"; "$a" ];
      ]
  in
  let simple =
    oneof
      [
        map (fun v -> "incr " ^ v) var;
        map2 (fun v x -> Printf.sprintf "set %s [expr {%s + 1}]" v x) var atom;
        map2 (fun v x -> Printf.sprintf "set %s [expr %s * 2]" v x) var atom;
        map (fun x -> "puts " ^ x) atom;
        oneofl
          [
            "break"; "continue"; "return $a"; "error oops"; "f $b"; "g 1 2"; "if 1 $s";
            "eval $s"; "set s {incr c}"; "set s {puts [expr {$c}]}";
          ];
      ]
  in
  let body block =
    map (fun cmds -> "{ " ^ String.concat "; " cmds ^ " }") (list_size (1 -- 3) block)
  in
  let rec cmd depth =
    if depth = 0 then simple
    else
      let b = body (cmd (depth - 1)) in
      frequency
        [
          (3, simple);
          (1, map2 (fun c t -> Printf.sprintf "if %s %s" c t) cond b);
          (1, map3 (fun c t e -> Printf.sprintf "if %s then %s else %s" c t e) cond b b);
          ( 1,
            map3
              (fun (c1, c2) t (e1, e2) ->
                Printf.sprintf "if %s %s elseif %s %s else %s" c1 t c2 e1 e2)
              (pair cond cond) b (pair b b) );
          (1, map2 (fun c t -> Printf.sprintf "while %s %s" c t) cond b);
          ( 1,
            map2
              (fun n t -> Printf.sprintf "for {set i 0} {$i < %d} {incr i} %s" n t)
              (int_range 0 3) b );
          (1, map (fun t -> "foreach x {1 2 3} " ^ t) b);
          (1, map (fun t -> "foreach x {1 2} y {a b c} " ^ t) b);
          (1, map (fun t -> "catch " ^ t ^ " r") b);
          (1, map (fun t -> "proc f {x} " ^ t) b);
          (1, map (fun t -> "proc g {x {y 0} args} " ^ t) b);
          (1, map (fun x -> Printf.sprintf "expr {%s + [incr c]}" x) atom);
        ]
  in
  map
    (fun cmds -> "set a 0; set b 1; set c 2; set s {incr a}; " ^ String.concat "\n" cmds)
    (list_size (1 -- 6) (cmd 2))

(* A warm run (a second interpreter on caches whose slots a first run
   filled) must be indistinguishable from a cold one; hits and misses may
   split differently, their sum may not. *)
let test_slots_warm_equals_cold =
  qtest ~count:400 "warm run equals cold run" gen_slot_script (fun src ->
      let fresh caches = Interp.create ~step_limit:400 ~caches () in
      let cold = run_outcome (fresh (Interp.create_caches ())) src in
      let shared = Interp.create_caches () in
      ignore (run_outcome (fresh shared) src);
      let warm = run_outcome (fresh shared) src in
      cold = warm)

(* 512 distinct scripts, enough to push any earlier entry out of the
   parse cache *)
let flush_parse_cache it =
  for i = 1 to 512 do
    match Interp.eval it (Printf.sprintf "set v%d %d" i i) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "eval: %s" e
  done

let parse_counts it =
  let p = Interp.profile it in
  [ p.Interp.parse_hits; p.Interp.parse_misses ]

let test_runtime_body_uses_lru () =
  let it = Interp.create () in
  let eval src =
    match Interp.eval it src with Ok v -> v | Error e -> Alcotest.failf "eval %S: %s" src e
  in
  (* the second [if 1 $b] finds the body's text in the LRU *)
  check Alcotest.string "body ran" "2"
    (eval "set n 0; set b {incr n}; if 1 $b; if 1 $b; set n");
  Alcotest.(check (list int)) "parse hits, misses" [ 1; 2 ] (parse_counts it);
  (* once evicted, the text is parsed again: no slot kept it *)
  flush_parse_cache it;
  let before = parse_counts it in
  check Alcotest.string "body ran again" "3" (eval "if 1 $b; set n");
  Alcotest.(check (list int)) "script and body both missed"
    (List.map2 ( + ) before [ 0; 2 ])
    (parse_counts it)

(* An expression's [\[f $x\]] is parsed once, into the command node's
   slot: after the parse cache has evicted [f $x], calling the proc again
   parses nothing, and the three script lookups (g's body, [f $x], f's
   body) are all hits. *)
let test_expr_cmd_slot () =
  let it = Interp.create () in
  let eval src =
    match Interp.eval it src with Ok v -> v | Error e -> Alcotest.failf "eval %S: %s" src e
  in
  ignore (eval "proc f {x} {expr {$x * 2}}; proc g {x} {expr {[f $x] + 1}}");
  check Alcotest.string "first call" "7" (eval "g 3");
  flush_parse_cache it;
  let before = parse_counts it in
  check Alcotest.string "second call" "9" (Interp.call it "g" [ "4" ]);
  Alcotest.(check (list int)) "slots serve every lookup"
    (List.map2 ( + ) before [ 3; 0 ])
    (parse_counts it)

(* A command substitution that does not parse fails when it is evaluated,
   every time, and not at all in an arm that is never taken. *)
let test_expr_cmd_syntax_error () =
  let it = Interp.create () in
  let eval src = Interp.eval it src in
  (match eval "proc h {} {expr {[string length \"x] + 1}}" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "defining h: %s" e);
  for _ = 1 to 2 do
    match eval "h" with
    | Ok v -> Alcotest.failf "h returned %S" v
    | Error e ->
      Alcotest.(check bool) ("syntax error: " ^ e) true
        (String.starts_with ~prefix:"syntax error" e)
  done;
  match eval "expr {0 && [string length \"x]}" with
  | Ok v -> check Alcotest.string "untaken arm never parsed" "0" v
  | Error e -> Alcotest.failf "untaken arm: %s" e

let test_proc_redefines_slot_command () =
  let caches = Interp.create_caches () in
  let script = "set n 0; foreach x {1 2 3} { incr n }; set n" in
  let redefine = "proc incr {v} { upvar 1 $v x; set x [expr {$x + 10}] }" in
  let eval it src =
    match Interp.eval it src with Ok v -> v | Error e -> Alcotest.failf "eval %S: %s" src e
  in
  let it = Interp.create ~caches () in
  check Alcotest.string "builtin incr" "3" (eval it script);
  ignore (eval it redefine);
  check Alcotest.string "proc honoured by the same interpreter" "30" (eval it script);
  let other = Interp.create ~caches () in
  ignore (eval other redefine);
  check Alcotest.string "proc honoured by another interpreter" "30" (eval other script)

let test_info_body_after_slot_fill () =
  let body = " return [expr {$a + 1}] " in
  check Alcotest.string "source text" body
    (ok (Printf.sprintf "proc p {a} {%s}; p 1; p 2; info body p" body))

(* Counters taken at the commit before compile slots existed: the budget
   runs out at the same step, after the same lookups. *)
let test_step_limit_in_slot_body () =
  let cases =
    [
      ( "proc f {} { global k; foreach x {1 2 3 4 5 6 7 8 9} \
         { for {set i 0} {$i < 10} {incr i} \
         { if {$i % 3 == 0} { incr k } else { incr k 2 } } } }; set k 0; f",
        200,
        [ 201; 59; 123; 55; 41 ] );
      ( "set k 0; while {$k < 1000} { if {$k % 2 == 0} { incr k } else { incr k 1 } }",
        333,
        [ 334; 82; 167; 85; 84 ] );
    ]
  in
  List.iter
    (fun (src, limit, want) ->
      let caches = Interp.create_caches () in
      List.iter
        (fun run ->
          let it = Interp.create ~step_limit:limit ~caches () in
          let outcome, _, steps, (commands, _, _, parses, exprs, _) = run_outcome it src in
          Alcotest.(check bool) (run ^ ": exhausted") true (outcome = Exhausted);
          Alcotest.(check (list int))
            (run ^ ": steps, k, commands, parse and expr lookups")
            want
            [
              steps;
              int_of_string (Option.get (Interp.get_var_opt it "k"));
              commands;
              parses;
              exprs;
            ])
        [ "cold"; "warm" ])
    cases

(* --- values: the string is the value, int and list forms are caches --- *)

(* Each case changes a value's string after one of its forms was cached,
   or changes a variable that shares a value with another, and checks the
   form read back agrees with the string.  Exact expected results. *)
let value_cases =
  [
    ("set x 5; append x 1; incr x", "52");
    ("set x 10; expr {$x+0}; append x 0; expr {$x+1}", "101");
    ("set x 10; llength $x; append x 0; incr x", "101");
    ("set l [split a=b =]; append l \" c\"; llength $l", "3");
    ("set l [split a=b =]; llength $l; append l \" c\"; lindex $l 2", "c");
    ("set a [list 1 2]; set b $a; lappend b 3; llength $a", "2");
    ("set a [list 1 2]; set b $a; lappend b 3; list $a $b", "{1 2} {1 2 3}");
    ("set x \" 7 \"; incr x; set x", "8");
    ("set x \" 7 \"; expr {$x + 0}; string length $x", "3");
    ("set l [list a {b c}]; string length $l", "7");
    ("string length [split a,b ,]", "3");
    ("set l [list a b]; lappend l {c d}; string match {a b {c d}} $l", "1");
    ("set x [expr {6 * 7}]; list [lindex $x 0] [llength $x] [string length $x]", "42 1 2");
    ("set x [list 5]; incr x", "6");
    ("set x 12; lindex $x 0; incr x; set x", "13");
    ("set l [list 1 2]; set e [lindex $l 0]; incr e; list $l $e", "{1 2} 2");
    ("set l {1 2 3}; foreach x $l {lappend l $x}; llength $l", "6");
    ("proc f {v} {lappend v z; llength $v}; set l {a b}; list [f $l] [llength $l]", "3 2");
    ("proc f {n} {incr n; set n}; set k 41; list [f $k] $k", "42 41");
    ("set x [expr {2000 * 3}]; append x 1; expr {$x / 10}", "6000");
    ("set n 1023; incr n; incr n; string length $n", "4");
    ("set l [list x x]; lappend l y; set l", "x x y");
  ]

(* --- variable cells and the references that cache them --- *)

(* Each case runs one literal reference ([set x], [$x], [incr x], a loop
   variable) in more than one scope or across a change of what its name
   means; the expected results are tclsh 8.6's. *)
let cell_cases =
  [
    (* each frame has its own cells: the references in [down]'s body are
       re-resolved in every frame they run in *)
    ("proc down {n} {set mine $n; if {$n > 0} {down [expr {$n - 1}]}; set mine}; down 3", "3");
    ( "proc d {n} {if {$n == 0} {return 0}; incr n -1; set s [d $n]; expr {$n + $s}}; d 4",
      "6" );
    ("proc p {x} {set x}; set x top; list [p a] [p b] $x", "a b top");
    (* a link made after the reference cached a local cell: the frame's new
       stamp sends the same [set x $k] to the global cell *)
    ( "set x g; proc f {} {foreach k {1 2} {if {$k == 2} {unset x; global x}; set x $k}}; f; set x",
      "2" );
    ( "set y 0; proc f {} {foreach k {1 2 3} {if {$k == 2} {unset v; upvar 1 y v}; incr v}}; f; set y",
      "2" );
    ( "proc f {} {foreach k {a b} {if {$k eq {b}} {unset v; upvar 1 arr v}; set v(k) $k}; array size v}; f; set arr(k)",
      "b" );
    (* unset keeps the cell, so the cached reference and a lookup by name
       agree on it *)
    ("set r {}; foreach k {1 2} {set x $k; lappend r [info exists x]; unset x}; set r", "1 1");
    ( "proc f {} {set r {}; foreach k {1 2} {incr c; lappend r [info exists c] $c; unset c}; set r}; f",
      "1 1 1 1" );
    ("set x 1; unset x; set r [info exists x]; set x 2; list $r $x [info exists x]", "0 2 1");
    ("foreach v {1 2} {unset -nocomplain w; lappend w $v}; set w", "2");
    (* a parameter given twice binds the first *)
    ("proc dup {a a} {set a}; dup 1 2", "1");
    (* one parsed body, two procs with different parameter names *)
    ( "set b {if {[info exists p]} {return p$p}; return q$q}; proc fp {p} $b; proc fq {q} $b; list [fp 1] [fq 2] [fp 3]",
      "p1 q2 p3" );
    (* loop variables: element names take the lookup by name *)
    ("foreach a(x) {1 2} {}; set a(x)", "2");
    ("foreach {k v} {a 1 b 2} {set m($k) $v}; list $k $v $m(a)", "b 2 1");
    ("set c set; $c v 5; set v", "5");
    (* the errors Tcl 8.6 raises *)
    ("catch {unset nosuch} m; set m", "can't unset \"nosuch\": no such variable");
    ("unset -nocomplain nosuch; unset -nocomplain; unset", "");
    ("set a(1) x; catch {set a(2)} m; set m", "can't read \"a(2)\": no such element in array");
    ("set s 1; catch {set s(2) x} m; set m", "can't set \"s(2)\": variable isn't array");
    ("catch {set n(2)} m; set m", "can't read \"n(2)\": no such variable");
    ("set x 1; proc f {} {set x 2; global x}; catch f m; set m", "variable \"x\" already exists");
    ("proc f {} {set v 2; upvar 1 q v}; catch f m; set m", "variable \"v\" already exists");
  ]

(* an AST filled by one interpreter is shared by the next: a reference
   stamped in the first one's global scope must not serve the second *)
let test_cells_shared_ast () =
  let caches = Interp.create_caches () in
  let script = "if {[info exists x]} {set x} else {set x fresh; set x}" in
  let run expected =
    let it = Interp.create ~caches () in
    match Interp.eval it script with
    | Ok v -> check Alcotest.string "own global" expected v
    | Error e -> Alcotest.failf "eval: %s" e
  in
  run "fresh";
  run "fresh";
  let it = Interp.create ~caches () in
  Interp.set_var it "x" "host";
  match Interp.eval it script with
  | Ok v -> check Alcotest.string "host variable" "host" v
  | Error e -> Alcotest.failf "eval: %s" e

(* --- command caches: builtins across interpreters, proc definitions --- *)

let cmdcache_cases =
  [
    (* a builtin's cached node, then the builtin redefined *)
    ("set r {}; foreach i {1 2} { lappend r [set x $i]; proc set {args} {return S} }; concat $r",
      "1 S");
    (* one proc node, a different body or parameter list each pass *)
    ("set r {}; foreach b {{return one} {return two}} { proc f {} $b; lappend r [f] }; set r",
      "one two");
    ("set r {}; foreach p {{{a 1}} {{a 2}}} { proc g $p {return $a}; lappend r [g] }; set r",
      "1 2");
    ("foreach p {a {a b}} { proc g $p {return x} }; info args g", "a b");
    (* one body in two procs: two nodes, then one node and two names *)
    ("set b {expr {$n * 2}}; proc f {n} $b; proc g {n} $b; list [f 1] [g 2]", "2 4");
    ("foreach n {f g} { proc $n {x y} {expr {$x + $y}} }; catch {g 1} m; list [f 1 2] $m",
      "3 {wrong # args: should be \"g x y\"}");
    (* calls through names built at run time *)
    ("proc p1 {} {return one}; proc p2 {} {return two}; set r {};\n\
      foreach i {1 2} { lappend r [p$i] }; set c set; $c y 5; lappend r $y",
      "one two 5");
    ("proc f {l} {return proc}; set r {}; foreach n {f llength} { lappend r [$n {a b}] }; set r",
      "proc 2");
  ]

let eval_in it src =
  match Interp.eval it src with Ok v -> v | Error e -> Alcotest.failf "eval %S: %s" src e

(* Two interpreters share one AST; [shadow] redefines or removes [set].
   Whichever runs the node first, neither may use the other's command. *)
let test_shared_builtin_shadow () =
  let caches = Interp.create_caches () in
  let script = "set x 1" in
  List.iter
    (fun shadow_first ->
      let plain = Interp.create ~caches () and shadow = Interp.create ~caches () in
      ignore (eval_in shadow "proc set {args} {return shadowed}");
      let run_plain () = check Alcotest.string "plain" "1" (eval_in plain script) in
      let run_shadow () = check Alcotest.string "shadow" "shadowed" (eval_in shadow script) in
      if shadow_first then (run_shadow (); run_plain (); run_shadow ())
      else (run_plain (); run_shadow (); run_plain ()))
    [ false; true ]

let test_shared_builtin_unregister () =
  let caches = Interp.create_caches () in
  let script = "set x 1" in
  List.iter
    (fun removed_first ->
      let plain = Interp.create ~caches () and removed = Interp.create ~caches () in
      Interp.unregister removed "set";
      let run_plain () = check Alcotest.string "plain" "1" (eval_in plain script) in
      let run_removed () =
        check
          Alcotest.(result string string)
          "removed" (Error "invalid command name \"set\"") (Interp.eval removed script)
      in
      if removed_first then (run_removed (); run_plain (); run_removed ())
      else (run_plain (); run_removed (); run_plain ()))
    [ false; true ]

(* one CODE text run by two interpreters: the second reuses the first's
   definitions, and its own procs still win over another's *)
let test_shared_proc_definitions () =
  let caches = Interp.create_caches () in
  let code = "proc f {a {b 2}} {list $a $b}; proc set {args} {return mine}" in
  let run () =
    let it = Interp.create ~caches () in
    ignore (eval_in it code);
    check Alcotest.string "proc" "1 2" (eval_in it "f 1");
    check Alcotest.string "builtin name" "mine" (eval_in it "set x 1");
    check Alcotest.string "info body" "list $a $b" (eval_in it "info body f")
  in
  (* a fresh interpreter caches [set x 1] as the builtin first *)
  ignore (eval_in (Interp.create ~caches ()) "set x 1");
  run ();
  run ();
  let other = Interp.create ~caches () in
  ignore (eval_in other "proc f {a {b 2}} {return other}");
  check Alcotest.string "own proc" "other" (eval_in other "f 1")

(* the command table is what [info] reads: a host command registered over
   a proc is no longer a proc *)
let test_register_over_proc () =
  let it = Interp.create () in
  ignore (eval_in it "proc f {a {b 2}} {return $a}; proc g {} {}");
  check Alcotest.string "info procs before" "f g" (eval_in it "info procs");
  check Alcotest.string "info args before" "a b" (eval_in it "info args f");
  Interp.register it "f" (fun _ _ -> Interp.Text "host");
  check Alcotest.string "host command" "host" (eval_in it "f 1");
  check Alcotest.string "info procs" "g" (eval_in it "info procs");
  let not_proc = Error "\"f\" isn't a procedure" in
  check Alcotest.(result string string) "info body" not_proc (Interp.eval it "info body f");
  check Alcotest.(result string string) "info args" not_proc (Interp.eval it "info args f");
  Interp.unregister it "g";
  check Alcotest.string "info procs after unregister" "" (eval_in it "info procs")

let cmdcache_tests =
  [
    Alcotest.test_case "shared AST, builtin redefined" `Quick test_shared_builtin_shadow;
    Alcotest.test_case "shared AST, builtin removed" `Quick test_shared_builtin_unregister;
    Alcotest.test_case "shared proc definitions" `Quick test_shared_proc_definitions;
    Alcotest.test_case "register over a proc" `Quick test_register_over_proc;
  ]

(* --- compiled commands against the generic invoke --- *)

(* builtins a program may not call, one of which the generic run takes
   away *)
let spare_builtins =
  [ "lreverse"; "lassign"; "concat"; "uplevel"; "lrange"; "lsort"; "array"; "join"; "error" ]

let mentions src name =
  let n = String.length name in
  let rec at i = i + n <= String.length src && (String.sub src i n = name || at (i + 1)) in
  at 0

(* [src] in a plain interpreter, and in one where a builtin that [src]
   never names is re-registered as a host command, so no compiled command
   is valid there and every node takes the generic invoke.  The two runs
   must print, return and charge the same, and count the same cache hits. *)
let same_compiled_and_generic src =
  let run shadow =
    let it = Interp.create ~step_limit:1_000_000 () in
    Option.iter
      (fun name -> Interp.register it name (fun _ _ -> Alcotest.failf "%s was called" name))
      shadow;
    let r =
      match Interp.eval it src with r -> Some r | exception Interp.Resource_exhausted -> None
    in
    (r, Interp.take_output it, Interp.steps_used it, Interp.profile it)
  in
  match List.find_opt (fun name -> not (mentions src name)) spare_builtins with
  | None -> Alcotest.failf "every spare builtin is named in %S" src
  | Some name ->
    let plain = run None and generic = run (Some name) in
    let show (r, out, steps, (p : Interp.profile)) =
      Printf.sprintf "%s, output %S, %d steps, %d commands, parse %d/%d, expr %d/%d"
        (match r with
        | Some (Ok v) -> "ok " ^ v
        | Some (Error e) -> "error " ^ e
        | None -> "exhausted")
        out steps p.commands p.parse_hits p.parse_misses p.expr_hits p.expr_misses
    in
    if plain <> generic then
      Alcotest.failf "compiled: %s\ngeneric:  %s" (show plain) (show generic)

let test_compiled_oracle_programs () =
  let dir = "tcl" in
  let cases =
    List.filter (fun f -> Filename.check_suffix f ".tcl") (Array.to_list (Sys.readdir dir))
  in
  check Alcotest.bool "found the oracle programs" true (List.length cases >= 10);
  List.iter
    (fun f ->
      let src = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      same_compiled_and_generic src)
    cases

let test_compiled_generated =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"generated programs" ~print:Fun.id Tclgen.program
       (fun src ->
         same_compiled_and_generic src;
         true))

(* --- list scanner: the rewritten readers against the old ones --- *)

(* [Value.to_list] before it sliced spans: one Buffer copy per character,
   with Tcl's rule and messages for what may follow a closing brace or quote *)
let old_to_list s =
  let exception Bad of string in
  let n = String.length s in
  let out = ref [] in
  let buf = Buffer.create 16 in
  let i = ref 0 in
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let junk what i =
    let j = ref i in
    while !j < n && (not (is_space s.[!j])) && !j < i + 20 do
      incr j
    done;
    raise
      (Bad
         (Printf.sprintf "list element in %s followed by \"%s\" instead of space" what
            (String.sub s i (!j - i))))
  in
  let unescape c = match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | other -> other in
  try
    while !i < n do
      while !i < n && is_space s.[!i] do
        incr i
      done;
      if !i < n then begin
        Buffer.clear buf;
        if s.[!i] = '{' then begin
          let depth = ref 1 in
          incr i;
          while !i < n && !depth > 0 do
            let c = s.[!i] in
            if c = '\\' && !i + 1 < n then begin
              Buffer.add_char buf c;
              Buffer.add_char buf s.[!i + 1];
              i := !i + 2
            end
            else begin
              if c = '{' then incr depth else if c = '}' then decr depth;
              if !depth > 0 then Buffer.add_char buf c;
              incr i
            end
          done;
          if !depth > 0 then raise (Bad "unmatched open brace in list");
          if !i < n && not (is_space s.[!i]) then junk "braces" !i;
          out := Buffer.contents buf :: !out
        end
        else if s.[!i] = '"' then begin
          incr i;
          let closed = ref false in
          while !i < n && not !closed do
            let c = s.[!i] in
            if c = '\\' && !i + 1 < n then begin
              Buffer.add_char buf (unescape s.[!i + 1]);
              i := !i + 2
            end
            else if c = '"' then begin
              closed := true;
              incr i
            end
            else begin
              Buffer.add_char buf c;
              incr i
            end
          done;
          if not !closed then raise (Bad "unmatched open quote in list");
          if !i < n && not (is_space s.[!i]) then junk "quotes" !i;
          out := Buffer.contents buf :: !out
        end
        else begin
          let stop = ref false in
          while !i < n && not !stop do
            let c = s.[!i] in
            if is_space c then stop := true
            else if c = '\\' && !i + 1 < n then begin
              Buffer.add_char buf (unescape s.[!i + 1]);
              i := !i + 2
            end
            else begin
              Buffer.add_char buf c;
              incr i
            end
          done;
          out := Buffer.contents buf :: !out
        end
      end
    done;
    Ok (List.rev !out)
  with Bad msg -> Error msg

(* [Strutil.split] before it sliced, except that the empty string now
   splits into the empty list (Tcl) where it used to give one element *)
let old_split s ~on =
  if on = "" then List.init (String.length s) (fun i -> String.make 1 s.[i])
  else if s = "" then []
  else begin
    let out = ref [] in
    let buf = Buffer.create 16 in
    String.iter
      (fun c ->
        if String.contains on c then begin
          out := Buffer.contents buf :: !out;
          Buffer.clear buf
        end
        else Buffer.add_char buf c)
      s;
    out := Buffer.contents buf :: !out;
    List.rev !out
  end

let list_alphabet =
  QCheck2.Gen.oneofl [ 'a'; 'b'; 'n'; 't'; ' '; '\t'; '\n'; '{'; '}'; '"'; '\\'; ';'; '='; ',' ]

let test_to_list_model =
  qtest ~count:2000 "to_list agrees with the copying reader"
    QCheck2.Gen.(string_size ~gen:list_alphabet (0 -- 24))
    (fun s -> Value.to_list s = old_to_list s)

let test_elements_model =
  qtest ~count:2000 "elements agree with to_list"
    QCheck2.Gen.(string_size ~gen:list_alphabet (0 -- 24))
    (fun s ->
      let elements =
        match Value.elements (Value.of_string s) with
        | a -> Ok (Array.map Value.to_string a)
        | exception Value.Bad_list msg -> Error msg
      in
      elements = Result.map Array.of_list (Value.to_list s))

(* any byte, with the list characters and those at the ends of [split]'s
   63-code mask spans drawn often *)
let split_byte =
  QCheck2.Gen.(
    oneof
      [
        list_alphabet;
        char;
        oneofl [ '\x00'; '>'; '?'; '@'; '}'; '~'; '\x7f'; '\xbc'; '\xbd'; '\xbe'; '\xfb'; '\xfc'; '\xff' ];
      ])

let test_split_model =
  qtest ~count:3000 "split agrees with the copying splitter"
    QCheck2.Gen.(pair (string_size ~gen:split_byte (0 -- 24)) (string_size ~gen:split_byte (0 -- 4)))
    (fun (s, on) -> Array.to_list (Strutil.split s ~on Fun.id) = old_split s ~on)

(* --- strutil --- *)

let test_glob () =
  List.iter
    (fun (p, s, want) ->
      Alcotest.(check bool) (p ^ " ~ " ^ s) want (Strutil.glob_match ~pattern:p s))
    [
      ("*", "", true); ("*", "abc", true); ("a*c", "abc", true); ("a*c", "ac", true);
      ("a*c", "abd", false); ("?", "a", true); ("?", "", false); ("a?c", "abc", true);
      ("[a-c]x", "bx", true); ("[a-c]x", "dx", false); ("\\*", "*", true); ("\\*", "a", false);
      ("a[bc]d", "acd", true); ("**a", "xxa", true);
    ]

let () =
  Alcotest.run "tscript"
    [
      ( "values",
        [
          test_list_roundtrip;
          test_list_roundtrip_binary;
          Alcotest.test_case "quoting" `Quick test_list_quoting;
          Alcotest.test_case "malformed lists" `Quick test_list_malformed;
          Alcotest.test_case "truthiness" `Quick test_truthy;
          Alcotest.test_case "float rendering" `Quick test_of_float;
        ] );
      ( "parser",
        [
          Alcotest.test_case "comments" `Quick test_parse_comments;
          Alcotest.test_case "line continuation" `Quick test_parse_continuation;
          Alcotest.test_case "nested brackets" `Quick test_parse_nested_brackets;
          Alcotest.test_case "escapes" `Quick test_parse_escapes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "empty" `Quick test_parse_empty;
        ] );
      ("expr", expect_cases "expr" expr_cases
        @ [
            Alcotest.test_case "division by zero" `Quick test_expr_division_by_zero;
            Alcotest.test_case "malformed" `Quick test_expr_malformed;
            Alcotest.test_case "short-circuit side effects" `Quick
              test_expr_short_circuit_effects;
            test_expr_fuzz_vs_reference;
          ]);
      ( "fastpath",
        [ test_unboxed_agrees; Alcotest.test_case "fixed cases" `Quick test_unboxed_cases ] );
      ("semantics", expect_cases "semantics" semantics_cases
        @ [
            Alcotest.test_case "unknown command" `Quick test_unknown_command;
            Alcotest.test_case "arity message" `Quick test_wrong_arity_message;
            Alcotest.test_case "calls by run-time name" `Quick test_runtime_name_calls;
            Alcotest.test_case "recursion depth" `Quick test_recursion_depth_limited;
            Alcotest.test_case "break outside loop" `Quick test_break_outside_loop;
            Alcotest.test_case "continue outside loop" `Quick test_continue_outside_loop;
            Alcotest.test_case "toplevel return" `Quick test_return_at_toplevel;
            Alcotest.test_case "array/scalar collision" `Quick test_array_scalar_collision;
          ]);
      ("vcaches", expect_cases "vcaches" value_cases);
      ( "varcells",
        expect_cases "varcells" cell_cases
        @ [ Alcotest.test_case "shared AST, own globals" `Quick test_cells_shared_ast ] );
      ("scoping", expect_cases "scoping" scoping_cases);
      ("upvar", expect_cases "upvar" upvar_cases @ expect_errors "upvar" upvar_errors);
      ( "host-api",
        [
          Alcotest.test_case "host command" `Quick test_host_command;
          Alcotest.test_case "global vars" `Quick test_global_vars_api;
          Alcotest.test_case "output capture" `Quick test_output_capture;
          Alcotest.test_case "output redirect" `Quick test_output_redirect;
          Alcotest.test_case "call" `Quick test_call_api;
          Alcotest.test_case "list reply" `Quick test_items_reply;
        ] );
      ( "metering",
        [
          Alcotest.test_case "steps counted" `Quick test_steps_counted;
          Alcotest.test_case "limit aborts" `Quick test_step_limit_aborts;
          Alcotest.test_case "limit uncatchable" `Quick test_step_limit_not_catchable;
          Alcotest.test_case "empty loop metered" `Quick test_empty_loop_metered;
        ] );
      ( "caches",
        [
          Alcotest.test_case "profile counters" `Quick test_profile_counters;
          Alcotest.test_case "shared across interpreters" `Quick
            test_shared_caches_across_interpreters;
          Alcotest.test_case "evictions counted" `Quick test_cache_eviction_counted;
        ] );
      ( "slots",
        [
          test_slots_warm_equals_cold;
          Alcotest.test_case "run-time body uses the LRU" `Quick test_runtime_body_uses_lru;
          Alcotest.test_case "expr command parsed once" `Quick test_expr_cmd_slot;
          Alcotest.test_case "expr command syntax error at evaluation" `Quick
            test_expr_cmd_syntax_error;
          Alcotest.test_case "proc redefines a slot body's command" `Quick
            test_proc_redefines_slot_command;
          Alcotest.test_case "info body after slot fill" `Quick test_info_body_after_slot_fill;
          Alcotest.test_case "step limit in a slot body" `Quick test_step_limit_in_slot_body;
        ] );
      ("lists", [ test_to_list_model; test_split_model; test_elements_model ]);
      ("cmdcache", expect_cases "cmdcache" cmdcache_cases @ cmdcache_tests);
      ( "compiled",
        [
          Alcotest.test_case "oracle programs" `Quick test_compiled_oracle_programs;
          test_compiled_generated;
        ] );
      ( "strutil",
        [
          Alcotest.test_case "glob match" `Quick test_glob;
        ] );
    ]
