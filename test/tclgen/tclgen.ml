(* The typed random-program generator of the differential tests: see
   test_tcl_diff.ml, which runs its programs against tclsh, for what it
   covers and why its programs stay inside what TScript shares with Tcl.
   test_tscript.ml runs them too, compiled against the generic invoke. *)

module G = QCheck2.Gen

let ( let* ) = G.( let* )
let ( and* ) = G.( and* )
let ( let+ ) = G.( let+ )

(* ---- the generator ------------------------------------------------------ *)

(* which loop a statement is in: [continue] in a [while] body would skip
   the counter's [incr] *)
type loop = No_loop | In_while | In_for

(* Sizes stay small because nothing grows in a loop but a string, by one
   element at a time and never inside [foreach], and nothing is appended
   to itself: lists grow only at top level, by literal elements, integers
   and [foreach] elements, and strings print only from top level. *)
type env = {
  ints : string list;  (** integer variables statements may assign *)
  counters : string list;  (** loop counters: integers, read only *)
  strs : string list;  (** string variables *)
  elems : string list;  (** foreach variables: strings, read only *)
  lists : string list;  (** list variables *)
  scratch : string list;  (** integer variables that may be unset *)
  arrays : string list;  (** arrays of integers *)
  depth : int;
  loop : loop;
  grow : bool;  (** outside every loop: lists may grow, strings print *)
  appends : bool;  (** outside [foreach]: strings may grow *)
  calls : bool;  (** may call the program's procs *)
}

(* the body of a redefined [p1]: integer expressions over its parameters *)
let body_env =
  {
    ints = [ "a"; "b" ];
    counters = [];
    strs = [];
    elems = [];
    lists = [];
    scratch = [];
    arrays = [];
    depth = 1;
    loop = No_loop;
    grow = false;
    appends = false;
    calls = false;
  }

let nat = G.map string_of_int (G.int_range 0 100)
let int_lit = G.map string_of_int (G.int_range (-20) 100)
let var l = G.map (fun v -> "$" ^ v) (G.oneofl l)
let word = G.oneofl [ "a"; "bc"; "x"; "foo"; "q" ]

(* A list element and how the program spells it: every character that is
   special to the parser or to the list syntax is backslash-escaped, and a
   letter is sometimes written as a hex or octal code.  A raw backslash
   before a letter is a list escape: the letters leave out [a], [b] and
   [u], which Tcl decodes and TScript does not (DESIGN.md). *)
let atom =
  let letter =
    let* c = G.oneofl [ 'c'; 'n'; 'x'; 'y' ] in
    G.frequency
      [
        (8, G.pure (String.make 1 c));
        (1, G.pure (Printf.sprintf "\\x%02x" (Char.code c)));
        (1, G.pure (Printf.sprintf "\\%03o" (Char.code c)));
      ]
  in
  let special =
    G.oneofl
      [
        "\\ "; "\\{"; "\\}"; "\\\""; "\\\\"; "\\;"; "\\$"; "\\["; "\\]"; "\\t"; "\\v"; "\\f";
        "\\#";
      ]
  in
  let* parts = G.list_size (G.int_range 0 4) (G.frequency [ (5, letter); (2, special) ]) in
  G.pure (if parts = [] then "{}" else String.concat "" parts)

let atoms = G.list_size (G.int_range 0 4) atom
let index env =
  G.oneof
    ([ G.map string_of_int (G.int_range (-1) 4); G.pure "end"; G.pure "end-1" ]
    @ if env.ints = [] then [] else [ var env.ints ])

(* lsort's string options, alone and combined; the last of a conflicting
   pair wins *)
let sort_opts =
  G.oneofl
    [
      ""; " -ascii"; " -increasing"; " -decreasing"; " -unique"; " -decreasing -unique";
      " -unique -ascii -increasing"; " -decreasing -increasing"; " -integer -ascii";
    ]

let join_sep = G.oneofl [ ""; " ,"; " { }"; " {}"; " ::"; " \\{" ]

(* [lmap le LIST BODY]'s bodies: the element, a pair, a skip, an early end *)
let lmap_body =
  G.oneofl
    [
      "set le"; "list $le [string length $le]"; "if {[string length $le] > 1} continue; set le";
      "if {[string length $le] == 0} break; set le"; "string length $le";
    ]

let int_vars env = env.ints @ env.counters
let str_vars env = env.strs @ env.elems

(* options and a literal list for a numeric [lsort]: decimal integers
   (no leading zeros, which Tcl 8.6 reads as octal) and the program's
   integer variables for -integer, floats in several spellings for -real *)
let numeric_sort env =
  let ints =
    G.frequency ([ (3, int_lit) ] @ match int_vars env with [] -> [] | vs -> [ (1, var vs) ])
  in
  let reals =
    G.frequency
      [ (2, int_lit); (2, G.oneofl [ "1.5"; "-0.25"; "2e1"; "0.5"; "1e-3"; "3.0"; ".5" ]) ]
  in
  let* mode, elem = G.oneofl [ ("-integer", ints); ("-real", reals) ]
  and* extra =
    G.oneofl [ ""; " -decreasing"; " -unique"; " -increasing -unique"; " -decreasing -unique" ]
  in
  let* xs = G.list_size (G.int_range 0 5) elem in
  G.pure (Printf.sprintf "%s%s [list %s]" mode extra (String.concat " " xs))

(* an integer expression; [*] takes a small literal so values stay far
   from overflow (Tcl integers are unbounded, TScript's are 63-bit) *)
let rec iexpr env n =
  let leaves =
    [ (3, nat) ]
    @ (match int_vars env with [] -> [] | vs -> [ (4, var vs) ])
    @ (match env.lists with
      | [] -> []
      | ls -> [ (1, G.map (Printf.sprintf "[llength $%s]") (G.oneofl ls)) ])
    @ (match env.strs with
      | [] -> []
      | ss -> [ (1, G.map (Printf.sprintf "[string length $%s]") (G.oneofl ss)) ])
  in
  let leaf = G.frequency leaves in
  if n <= 0 then leaf
  else
    let sub = iexpr env (n - 1) in
    let nonzero = G.map string_of_int (G.oneof [ G.int_range 1 9; G.int_range (-9) (-1) ]) in
    G.frequency
      [
        (3, leaf);
        ( 3,
          let* a = sub and* op = G.oneofl [ "+"; "-" ] and* b = sub in
          G.pure (Printf.sprintf "(%s %s %s)" a op b) );
        ( 1,
          let* a = sub and* k = G.int_range (-5) 20 in
          G.pure (Printf.sprintf "(%s * %d)" a k) );
        ( 2,
          let* a = sub
          and* op = G.oneofl [ "/"; "%" ]
          and* d = G.frequency [ (5, nonzero); (1, sub) ] in
          G.pure (Printf.sprintf "(%s %s %s)" a op d) );
        ( 1,
          let* k = G.int_range 1 30
          and* op = G.oneofl [ "/"; "%" ]
          and* d = G.frequency [ (5, nonzero); (1, sub) ] in
          G.pure (Printf.sprintf "((0 - %d) %s %s)" k op d) );
        (* a power of a base in -6..6, so values stay far from overflow; a
           negative exponent gives 0, 1 or -1, or an error for a zero base *)
        ( 1,
          let* a = sub and* k = G.int_range (-3) 4 in
          G.pure (Printf.sprintf "((%s %% 13 - 6) ** %d)" a k) );
        (1, G.map (Printf.sprintf "-%s") sub);
        ( 1,
          let* a = sub and* op = G.oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] and* b = sub in
          G.pure (Printf.sprintf "(%s %s %s)" a op b) );
        ( 1,
          let* f = G.oneofl [ "min"; "max" ] and* a = sub and* b = sub in
          G.pure (Printf.sprintf "%s(%s, %s)" f a b) );
        (1, G.map (Printf.sprintf "abs(%s)") sub);
        (1, G.map (Printf.sprintf "~%s") sub);
        (* int() truncates a float toward zero *)
        (1, G.map (Printf.sprintf "int(%s / 2.0)") sub);
        ( 1,
          let* c = cond env (n - 1) and* a = sub and* b = sub in
          G.pure (Printf.sprintf "(%s ? %s : %s)" c a b) );
      ]

and cond env n =
  let e = iexpr env (min n 2) in
  let base =
    [
      ( 4,
        let* a = e and* op = G.oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] and* b = e in
        G.pure (Printf.sprintf "%s %s %s" a op b) );
    ]
    @ (match int_vars env with [] -> [] | vs -> [ (1, var vs) ])
    @ (match str_vars env with
      | [] -> []
      | ss ->
        [
          ( 1,
            let* s = var ss and* op = G.oneofl [ "eq"; "ne" ] and* w = word in
            G.pure (Printf.sprintf "%s %s \"%s\"" s op w) );
          ( 1,
            let* a = var ss and* b = var ss in
            G.pure (Printf.sprintf "%s ne %s" a b) );
        ])
    @
    match env.lists with
    | [] -> []
    | ls ->
      [
        ( 1,
          let* l = G.oneofl ls and* k = G.int_range 0 3 in
          G.pure (Printf.sprintf "[llength $%s] > %d" l k) );
      ]
  in
  if n <= 0 then G.frequency base
  else
    let sub = cond env (n - 1) in
    G.frequency
      (base
      @ [
          (1, G.map (Printf.sprintf "!(%s)") sub);
          ( 2,
            let* a = sub and* op = G.oneofl [ "&&"; "||" ] and* b = sub in
            G.pure (Printf.sprintf "(%s) %s (%s)" a op b) );
        ])

let proc_arg env =
  G.frequency
    ([ (2, int_lit); (2, G.map (Printf.sprintf "[expr {%s}]") (iexpr env 1)) ]
    @ match int_vars env with [] -> [] | vs -> [ (3, var vs) ])

let rec statement env =
  let open Printf in
  let e = iexpr env 2 in
  let ints =
    match env.ints with
    | [] -> []
    | is ->
      let i = G.oneofl is in
      [
        (2, G.map2 (sprintf "set %s %s") i int_lit);
        (4, G.map2 (sprintf "set %s [expr {%s %% 10007}]") i e);
        (2, G.map (sprintf "incr %s") i);
        (2, G.map2 (sprintf "incr %s %s") i int_lit);
      ]
      @ (match env.lists with
        | [] -> []
        | ls -> [ (1, G.map2 (sprintf "set %s [llength $%s]") i (G.oneofl ls)) ])
      @ (match env.strs with
        | [] -> []
        | ss -> [ (1, G.map2 (sprintf "set %s [string length $%s]") i (G.oneofl ss)) ])
      @
      if env.calls then
        [
          ( 2,
            let* i = i and* a = proc_arg env and* b = proc_arg env in
            G.pure (sprintf "set %s [f0 %s %s]" i a b) );
          ( 1,
            let* i = i and* a = proc_arg env and* b = G.option (proc_arg env) in
            let b = match b with Some b -> " " ^ b | None -> "" in
            G.pure (sprintf "set %s [f1 %s%s]" i a b) );
          ( 1,
            let* i = i and* j = G.oneofl is in
            G.pure (sprintf "set %s [v0 %s]" i j) );
          (* calls through names built at run time: p0 or p1, a builtin *)
          ( 1,
            let* i = i and* k = iexpr env 1 and* a = proc_arg env in
            G.pure (sprintf "set %s [p[expr {(%s) %% 2}] %s]" i k a) );
          ( 1,
            let* i = i and* k = G.int_range 0 1 and* a = proc_arg env in
            G.pure (sprintf "set %s [[lindex {p0 p1} %d] %s]" i k a) );
          (1, G.map (sprintf "[lindex {incr} 0] %s") i);
          (* redefinitions: p0's body is substituted when [proc] runs, so a
             loop redefines it on every pass; p1 gets a new default and body *)
          ( 1,
            let* v = var (int_vars env) in
            G.pure (sprintf "proc p0 {a} \"expr {(\\$a + %s) %% 10007}\"" v) );
          ( 1,
            let* k = G.int_range (-5) 9 and* b = iexpr body_env 1 in
            G.pure (sprintf "proc p1 {a {b %d}} {expr {(%s) %% 10007}}" k b) );
        ]
      else []
  in
  let strs =
    match env.strs with
    | [] -> []
    | ss ->
      let s = G.oneofl ss in
      [ (2, G.map2 (sprintf "set %s %s") s atom) ]
      @ (if env.appends then
           [
             (2, G.map2 (sprintf "append %s %s") s atom);
             (1, G.map2 (sprintf "append %s { } %s") s atom);
             (1, G.map2 (sprintf "append %s %s") s (var (int_vars env @ env.elems)));
           ]
         else [])
      @ (match env.lists with
        | [] -> []
        | ls ->
          [
            ( 2,
              let* s = s and* l = G.oneofl ls and* k = index env in
              G.pure (sprintf "set %s [lindex $%s %s]" s l k) );
            ( 1,
              let* s = s and* l = G.oneofl ls and* sep = join_sep in
              G.pure (sprintf "set %s [join $%s%s]" s l sep) );
          ])
  in
  let lists =
    match env.lists with
    | [] -> []
    | _ when not env.grow -> []
    | ls ->
      let l = G.oneofl ls in
      [
        ( 2,
          let* l = l and* xs = atoms in
          G.pure (sprintf "set %s [list %s]" l (String.concat " " xs)) );
        ( 3,
          let* l = l and* xs = G.list_size (G.int_range 1 3) atom in
          G.pure (sprintf "lappend %s %s" l (String.concat " " xs)) );
        (1, G.map2 (sprintf "lappend %s %s") l (var (int_vars env @ env.elems)));
        (1, G.map2 (sprintf "append %s { } %s") l atom);
        (1, G.map2 (sprintf "set %s $%s") l (G.oneofl ls));
        ( 1,
          let* l = l and* m = G.oneofl ls and* a = index env and* b = index env in
          G.pure (sprintf "set %s [lrange $%s %s %s]" l m a b) );
        (1, G.map2 (sprintf "set %s [lreverse $%s]") l (G.oneofl ls));
        ( 2,
          let* l = l and* m = G.oneofl ls and* o = sort_opts in
          G.pure (sprintf "set %s [lsort%s $%s]" l o m) );
        ( 1,
          let* l = l and* o = numeric_sort env in
          G.pure (sprintf "set %s [lsort %s]" l o) );
        ( 1,
          let* l = l and* a = G.oneofl ls and* x = atom and* b = G.oneofl ls in
          G.pure (sprintf "set %s [concat $%s %s $%s]" l a x b) );
        ( 1,
          let* l = l and* m = G.oneofl ls and* body = lmap_body in
          G.pure (sprintf "set %s [lmap le $%s {%s}]" l m body) );
        ( 1,
          let* l = l and* m = G.oneofl ls and* k = G.int_range 0 3 in
          G.pure (sprintf "set %s [lmap {la lb} $%s {list $lb %d $la}]" l m k) );
      ]
      @ (match env.strs with
        | [] -> []
        | ss ->
          [
            ( 1,
              let* l = l and* m = G.oneofl ls and* n = G.int_range 1 2 in
              let names = String.concat " " (List.filteri (fun i _ -> i < n) ss) in
              G.pure (sprintf "set %s [lassign $%s %s]" l m names) );
            ( 2,
              let* l = l
              and* s = G.oneofl ss
              and* sep = G.oneofl [ ""; " ,"; " ="; " {}"; " { }" ] in
              G.pure (sprintf "set %s [split $%s%s]" l s sep) );
          ])
      @
      if env.calls then
        [
          (1, G.map2 (fun l xs -> sprintf "set %s [g %s]" l (String.concat " " xs)) l atoms);
          ( 1,
            let* l = l and* xs = G.list_size (G.int_range 1 2) atom in
            G.pure (sprintf "set %s [h %s]" l (String.concat " " xs)) );
        ]
      else []
  in
  (* a variable error is caught and printed, so Tcl's message is checked *)
  let caught = sprintf "puts \"[catch {%s} msg] $msg\"" in
  let scratch =
    match env.scratch with
    | [] -> []
    | us ->
      let u = G.oneofl us in
      [
        (2, G.map2 (sprintf "set %s %s") u int_lit);
        (1, G.map (sprintf "incr %s") u);
        (1, G.map (sprintf "unset -nocomplain %s") u);
        (1, G.map (fun u -> caught ("unset " ^ u)) u);
        (1, G.map (fun u -> caught ("set " ^ u)) u);
        (1, G.map (sprintf "puts [info exists %s]") u);
        (1, G.map (fun u -> sprintf "if {[info exists %s]} {puts $%s}" u u) u);
      ]
  in
  let arrays =
    match env.arrays with
    | [] -> []
    | arrs ->
      let a = G.oneofl arrs in
      let elem =
        let* a = a
        and* k =
          G.oneof
            ([ G.oneofl [ "x"; "y"; "1" ] ] @ if env.ints = [] then [] else [ var env.ints ])
        in
        G.pure (sprintf "%s(%s)" a k)
      in
      [
        (2, G.map2 (sprintf "set %s %s") elem int_lit);
        (1, G.map (sprintf "incr %s") elem);
        (1, G.map (sprintf "unset -nocomplain %s") elem);
        (1, G.map (fun e -> caught ("set " ^ e)) elem);
        (1, G.map (fun e -> caught ("unset " ^ e)) elem);
        (1, G.map (fun e -> sprintf "if {[info exists %s]} {puts $%s}" e e) elem);
        (1, G.map (sprintf "puts [array size %s]") a);
        (1, G.map (fun a -> caught ("set " ^ a)) a);
      ]
      @
      match env.ints with
      | [] -> []
      | is -> [ (1, G.map (fun i -> caught ("set " ^ i ^ "(1)")) (G.oneofl is)) ]
  in
  let scopes =
    if env.calls then
      [
        (1, G.pure "puts [v1]");
        (1, G.pure "puts [v2 arr]");
        (1, G.pure "puts [v3]");
        (1, G.map (sprintf "puts [v4 %d]") (G.int_range 0 4));
      ]
    else []
  in
  let all_vars = int_vars env @ env.elems @ if env.grow then env.strs @ env.lists else [] in
  (* a float operand of [%] or [~] is an error in Tcl; only the status is
     printed, since TScript prefixes every [expr] error with "expr: " *)
  let float_operand =
    let* a = e
    and* f =
      G.oneof [ G.oneofl [ "1.5"; "2.0"; "-0.5"; "1e3"; "0.0" ]; G.map (sprintf "(%s / 2.0)") e ]
    and* form = G.int_range 0 2 in
    let ex =
      match form with
      | 0 -> sprintf "(%s) %% %s" a f
      | 1 -> sprintf "%s %% (%s)" f a
      | _ -> sprintf "~%s" f
    in
    G.pure (sprintf "puts [catch {expr {%s}}]" ex)
  in
  let puts =
    [
      (1, G.map (sprintf "puts %s") (var all_vars));
      (1, G.map (sprintf "puts [expr {%s}]") e);
      (1, float_operand);
    ]
    @ (match env.lists with
      | [] -> []
      | ls ->
        [
          (1, G.map (sprintf "puts [llength $%s]") (G.oneofl ls));
          ( 1,
            let* l = G.oneofl ls and* k = index env in
            G.pure (sprintf "puts [lindex $%s %s]" l k) );
          ( 1,
            let* l = G.oneofl ls and* a = index env and* b = index env in
            G.pure (sprintf "puts [lrange $%s %s %s]" l a b) );
          ( 1,
            let* l = G.oneofl ls and* o = sort_opts in
            G.pure (sprintf "puts [lsort%s $%s]" o l) );
          (1, G.map (sprintf "puts [lsort %s]") (numeric_sort env));
          ( 1,
            let* l = G.oneofl ls and* sep = join_sep in
            G.pure (sprintf "puts [join $%s%s]" l sep) );
          (1, G.map2 (sprintf "puts [concat $%s $%s]") (G.oneofl ls) (G.oneofl ls));
          (1, G.map (sprintf "puts [lreverse $%s]") (G.oneofl ls));
        ])
  in
  let jumps =
    match env.loop with
    | In_for ->
      [
        ( 1,
          let* c = cond env 1 and* j = G.oneofl [ "break"; "continue" ] in
          G.pure (sprintf "if {%s} {%s}" c j) );
      ]
    | No_loop | In_while -> []
  in
  let compound = if env.depth >= 2 then [] else compound env in
  G.frequency (ints @ strs @ lists @ scratch @ arrays @ scopes @ puts @ jumps @ compound)

and block env =
  let* ss = G.list_size (G.int_range 1 3) (statement env) in
  G.pure (String.concat "; " ss)

and compound env =
  let open Printf in
  let inner = { env with depth = env.depth + 1 } in
  let k = sprintf "k%d" env.depth in
  let counted loop = { inner with counters = k :: env.counters; loop; grow = false } in
  [
    ( 2,
      let* c = cond env 2 and* b = block inner in
      G.pure (sprintf "if {%s} {%s}" c b) );
    ( 2,
      let* c = cond env 2 and* b1 = block inner and* b2 = block inner in
      G.pure (sprintf "if {%s} {%s} else {%s}" c b1 b2) );
    ( 1,
      let* c1 = cond env 1 and* c2 = cond env 1 and* b1 = block inner and* b2 = block inner
      and* b3 = block inner in
      G.pure (sprintf "if {%s} then {%s} elseif {%s} {%s} else {%s}" c1 b1 c2 b2 b3) );
    ( 1,
      let* n = G.int_range 0 3 and* b = block (counted In_while) in
      G.pure (sprintf "set %s 0; while {$%s < %d} {%s; incr %s}" k k n b k) );
    ( 1,
      let* n = G.int_range 0 3 and* b = block (counted In_for) in
      G.pure (sprintf "for {set %s 0} {$%s < %d} {incr %s} {%s}" k k n k b) );
  ]
  @
  match env.lists with
  | [] -> []
  | ls ->
    let e = sprintf "e%d" env.depth and e' = sprintf "f%d" env.depth in
    let body =
      { inner with elems = e :: env.elems; loop = In_for; grow = false; appends = false }
    in
    [
      ( 2,
        let* l = G.oneofl ls and* b = block body in
        G.pure (sprintf "foreach %s $%s {%s}" e l b) );
      ( 1,
        let* l = G.oneofl ls and* b = block { body with elems = e' :: body.elems } in
        G.pure (sprintf "foreach {%s %s} $%s {%s}" e e' l b) );
      ( 1,
        let* l1 = G.oneofl ls and* l2 = G.oneofl ls
        and* b = block { body with elems = e' :: body.elems } in
        G.pure (sprintf "foreach %s $%s %s $%s {%s}" e l1 e' l2 b) );
    ]

(* f0 and f1 compute over their integer parameters; g and h return lists
   built from [args] and from a defaulted parameter *)
let procs =
  let env =
    {
      ints = [ "a"; "b"; "r" ];
      counters = [];
      strs = [];
      elems = [];
      lists = [];
      scratch = [];
      arrays = [];
      depth = 1;
      loop = No_loop;
      grow = true;
      appends = true;
      calls = false;
    }
  in
  let body =
    let* b = block env and* e = iexpr env 2 in
    G.pure (Printf.sprintf "set r 0; %s; expr {%s %% 1009}" b e)
  in
  let scoped env = block { env with ints = "r" :: env.ints } in
  let* b0 = body
  and* b1 = body
  and* d = atom
  and* v0 = scoped { env with ints = [ "w" ] }
  and* v1 = scoped { env with ints = []; scratch = [ "u" ]; arrays = [ "arr" ] }
  and* v2 = scoped { env with ints = []; arrays = [ "q" ] }
  and* v3 = scoped { env with ints = []; scratch = [ "w" ] } in
  G.pure
    (String.concat "\n"
       [
         Printf.sprintf "proc f0 {a b} {%s}" b0;
         Printf.sprintf "proc f1 {a {b 7}} {%s}" b1;
         (* p0 and p1 are redefined by the program's statements *)
         "proc p0 {a} {expr {($a + 1) % 10007}}";
         "proc p1 {a {b 3}} {expr {($a * $b) % 10007}}";
         "proc g {args} {return $args}";
         Printf.sprintf "proc h {x {y %s}} {list $y $x}" d;
         (* v0-v3 reach the caller's and the global variables; v4 recurses,
            each frame with its own [m] *)
         Printf.sprintf "proc v0 {name} {upvar 1 $name w; set r 0; %s; return $w}" v0;
         Printf.sprintf "proc v1 {} {global u arr; set r 0; %s; return $r}" v1;
         Printf.sprintf "proc v2 {name} {upvar $name q; set r 0; %s; return $r}" v2;
         Printf.sprintf "proc v3 {} {upvar #0 u w; set r 0; %s; return $r}" v3;
         "proc v4 {n} {if {$n <= 0} {return 0}; set m $n; set s [v4 [expr {$n - 1}]]; \
          expr {$m * 10 + $s}}";
       ])

let program =
  let env =
    {
      ints = [ "i"; "j"; "n" ];
      counters = [];
      strs = [ "s"; "t" ];
      elems = [];
      lists = [ "l"; "m" ];
      scratch = [ "u" ];
      arrays = [ "arr" ];
      depth = 0;
      loop = No_loop;
      grow = true;
      appends = true;
      calls = true;
    }
  in
  let* procs = procs
  and* i = int_lit
  and* j = int_lit
  and* n = int_lit
  and* s = atom
  and* t = atom
  and* l = atoms
  and* m = atoms
  and* body = G.list_size (G.int_range 2 12) (statement env) in
  let+ last =
    G.oneofl
      [ "puts [list $i $j $n $s $t $l $m [info exists u] [array size arr]]"; "list $i $s $l" ]
  in
  String.concat "\n"
    ([
       procs;
       Printf.sprintf "set i %s; set j %s; set n %s" i j n;
       Printf.sprintf "set s %s; set t %s" s t;
       Printf.sprintf "set l [list %s]; set m [list %s]" (String.concat " " l)
         (String.concat " " m);
     ]
    @ body @ [ last ])
