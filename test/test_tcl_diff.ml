(* Differential test: random TScript programs against real Tcl.

   A QCheck generator writes programs over the commands agents use most
   (set, expr, incr, if, while, for, foreach, proc, list, split, lindex,
   llength, lappend, append, string length, puts).  Each program runs under
   TScript and under tclsh, and the two must agree on the printed output,
   the error status and, when there is no error, the result.

   Programs are typed so that they stay inside what TScript claims to
   share with Tcl (DESIGN.md lists the known deviations): integer
   variables hold canonical decimal integers, loops are bounded, and
   [break]/[continue] appear only where they cannot skip a [while]
   counter.  List elements are drawn from an alphabet of list-special
   characters, spelled in the program with backslash escapes, hex and
   octal codes, so list quoting, list reading and the script parser's
   escapes are all on the path.

   tclsh is looked up on PATH (tclsh8.6, then tclsh) and runs as one
   child process that evaluates each program in a fresh child interpreter.
   Without tclsh the test prints that it was skipped and passes; with
   [--require-tclsh] a missing tclsh fails it. *)

module Interp = Tscript.Interp
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
  depth : int;
  loop : loop;
  grow : bool;  (** outside every loop: lists may grow, strings print *)
  appends : bool;  (** outside [foreach]: strings may grow *)
  calls : bool;  (** may call the program's procs *)
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

let int_vars env = env.ints @ env.counters
let str_vars env = env.strs @ env.elems

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
        (1, G.map (Printf.sprintf "-%s") sub);
        ( 1,
          let* a = sub and* op = G.oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] and* b = sub in
          G.pure (Printf.sprintf "(%s %s %s)" a op b) );
        ( 1,
          let* f = G.oneofl [ "min"; "max" ] and* a = sub and* b = sub in
          G.pure (Printf.sprintf "%s(%s, %s)" f a b) );
        (1, G.map (Printf.sprintf "abs(%s)") sub);
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
      ]
      @ (match env.strs with
        | [] -> []
        | ss ->
          [
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
  let all_vars = int_vars env @ env.elems @ if env.grow then env.strs @ env.lists else [] in
  let puts =
    [
      (1, G.map (sprintf "puts %s") (var all_vars));
      (1, G.map (sprintf "puts [expr {%s}]") e);
    ]
    @ (match env.lists with
      | [] -> []
      | ls ->
        [
          (1, G.map (sprintf "puts [llength $%s]") (G.oneofl ls));
          ( 1,
            let* l = G.oneofl ls and* k = index env in
            G.pure (sprintf "puts [lindex $%s %s]" l k) );
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
  G.frequency (ints @ strs @ lists @ puts @ jumps @ compound)

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
  let* b0 = body and* b1 = body and* d = atom in
  G.pure
    (String.concat "\n"
       [
         Printf.sprintf "proc f0 {a b} {%s}" b0;
         Printf.sprintf "proc f1 {a {b 7}} {%s}" b1;
         "proc g {args} {return $args}";
         Printf.sprintf "proc h {x {y %s}} {list $y $x}" d;
       ])

let program =
  let env =
    {
      ints = [ "i"; "j"; "n" ];
      counters = [];
      strs = [ "s"; "t" ];
      elems = [];
      lists = [ "l"; "m" ];
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
  let+ last = G.oneofl [ "puts [list $i $j $n $s $t $l $m]"; "list $i $s $l" ] in
  String.concat "\n"
    ([
       procs;
       Printf.sprintf "set i %s; set j %s; set n %s" i j n;
       Printf.sprintf "set s %s; set t %s" s t;
       Printf.sprintf "set l [list %s]; set m [list %s]" (String.concat " " l)
         (String.concat " " m);
     ]
    @ body @ [ last ])

(* ---- running it ----------------------------------------------------------- *)

type outcome = { status : int; result : string; output : string }

let tscript src =
  let it = Interp.create ~step_limit:1_000_000 () in
  let r = Interp.eval it src in
  let output = Interp.take_output it in
  match r with
  | Ok result -> { status = 0; result; output }
  | Error result -> { status = 1; result; output }

(* Reads a length-prefixed program from stdin, runs it in a fresh child
   interpreter whose [puts] appends to a buffer, and answers with the
   status, the result and the output, length-prefixed.  Binary channels: a
   character is a byte, and the generator writes ASCII only. *)
let tcl_server =
  {|fconfigure stdin -translation binary
fconfigure stdout -translation binary
proc capture {args} {
  switch [llength $args] {
    1 { append ::out [lindex $args 0] "\n" }
    2 { append ::out [lindex $args 1] }
  }
  return
}
while {[gets stdin n] >= 0} {
  set prog [read stdin $n]
  set ::out ""
  set child [interp create]
  interp alias $child puts {} capture
  set code [catch {$child eval $prog} res]
  interp delete $child
  puts -nonewline "$code [string length $res] [string length $::out]\n$res$::out"
  flush stdout
}
|}

let find_tclsh () =
  let dirs = String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "PATH")) in
  List.find_map
    (fun name ->
      List.find_map
        (fun dir ->
          let path = Filename.concat dir name in
          if dir <> "" && Sys.file_exists path && not (Sys.is_directory path) then Some path
          else None)
        dirs)
    [ "tclsh8.6"; "tclsh" ]

let tcl (ic, oc) src =
  Printf.fprintf oc "%d\n%s" (String.length src) src;
  flush oc;
  Scanf.sscanf (input_line ic) "%d %d %d" (fun status rlen olen ->
      let result = really_input_string ic rlen in
      let output = really_input_string ic olen in
      { status; result; output })

let show o = Printf.sprintf "status %d, result %S, output %S" o.status o.result o.output

(* [--seed N] replays the run that printed seed N *)
let () =
  let require = Array.mem "--require-tclsh" Sys.argv in
  Array.iteri
    (fun i a -> if a = "--seed" && i + 1 < Array.length Sys.argv then
        QCheck_base_runner.set_seed (int_of_string Sys.argv.(i + 1)))
    Sys.argv;
  match find_tclsh () with
  | None ->
    if require then begin
      prerr_endline "test_tcl_diff: no tclsh on PATH, and --require-tclsh was given";
      exit 1
    end
    else print_endline "test_tcl_diff: no tclsh on PATH; skipped"
  | Some tclsh ->
    let script = Filename.temp_file "tcl_diff" ".tcl" in
    Out_channel.with_open_bin script (fun oc -> output_string oc tcl_server);
    let ((ic, oc) as proc) = Unix.open_process_args tclsh [| tclsh; script |] in
    set_binary_mode_in ic true;
    set_binary_mode_out oc true;
    let agree src =
      let t = tscript src and r = tcl proc src in
      let same =
        t.status = r.status && t.output = r.output && (t.status = 1 || t.result = r.result)
      in
      if not same then QCheck2.Test.fail_reportf "TScript: %s@.Tcl:     %s" (show t) (show r);
      true
    in
    let test =
      QCheck2.Test.make ~count:300 ~name:"TScript agrees with tclsh" ~print:Fun.id program agree
    in
    let code = QCheck_base_runner.run_tests [ test ] in
    ignore (Unix.close_process proc);
    Sys.remove script;
    exit code
