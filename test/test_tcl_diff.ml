(* Differential test: random TScript programs against real Tcl.

   A QCheck generator writes programs over the commands agents use most
   (set, expr, incr, if, while, for, foreach, proc, list, split, lindex,
   llength, lappend, append, string length, puts), over the other list
   commands TScript keeps (lrange, lsort and each of its options, lreverse,
   join, concat, lassign, lmap) and over variable scope
   and lifetime (global, upvar, unset, info exists, array elements, a
   recursive proc), and over command resolution (procs redefined mid-program,
   inside loops too, with bodies and defaults that change per pass, and
   calls through names built at run time).  Each program runs under TScript and under tclsh, and
   the two must agree on the printed output, the error status and, when
   there is no error, the result.  Variable errors are caught and printed,
   so their messages are compared too.

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

let program = Tclgen.program

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
