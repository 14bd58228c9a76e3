(* Prints the A2-A5 ablation tables, exactly as [tacoma exp abl] prints them
   after A1.  A1 reruns E5 five times and is left to the slower CI golden
   step. *)

let () =
  let fmt = Format.std_formatter in
  List.iter
    (fun print -> print fmt)
    Experiments.Ablations.[ print_a2; print_a3; print_a4; print_a5 ];
  Format.pp_print_flush fmt ()
