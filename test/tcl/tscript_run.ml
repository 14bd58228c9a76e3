(* Run a TScript file and print what it [puts]: the TScript side of the
   Tcl oracle cases in this directory, whose .expected files are tclsh's
   output (see record.sh).  A script error goes to stderr with exit 1. *)

let () =
  let path = Sys.argv.(1) in
  let src = In_channel.with_open_bin path In_channel.input_all in
  let it = Tscript.Interp.create ~step_limit:1_000_000 () in
  Tscript.Interp.set_output it print_string;
  match Tscript.Interp.eval it src with
  | Ok _ -> ()
  | Error msg ->
    prerr_endline (path ^ ": " ^ msg);
    exit 1
