(* Every table row quoted in EXPERIMENTS.md must appear verbatim, as a whole
   line, in some golden file of this directory: a documented number that
   the program no longer produces fails the test.

   Usage: check_experiments_md.exe EXPERIMENTS.md GOLDEN...

   A table row is a line containing " | " inside a fenced code block.  Two
   tables are host-time measurements, not simulation output, and are
   skipped by the heading of the section that quotes them. *)

let excluded_sections =
  [
    (* E3's table is host ns/op: it differs between any two runs *)
    "## E3 ";
    (* wall-clock times of the parallel sweep *)
    "## Parallel regeneration";
  ]

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n'

let is_table_row line =
  let n = String.length line in
  let rec go i = i + 3 <= n && (String.sub line i 3 = " | " || go (i + 1)) in
  go 0

(* (line number, row) of every quoted row outside the excluded sections *)
let quoted_rows doc =
  let section = ref "" and in_fence = ref false and rows = ref [] in
  List.iteri
    (fun i line ->
      if String.starts_with ~prefix:"## " line then section := line
      else if String.starts_with ~prefix:"```" line then in_fence := not !in_fence
      else if
        !in_fence && is_table_row line
        && not
             (List.exists
                (fun prefix -> String.starts_with ~prefix !section)
                excluded_sections)
      then rows := (i + 1, line) :: !rows)
    (read_lines doc);
  List.rev !rows

let () =
  match Array.to_list Sys.argv with
  | _ :: doc :: goldens ->
    let corpus = Hashtbl.create 1024 in
    List.iter
      (fun path -> List.iter (fun l -> Hashtbl.replace corpus l ()) (read_lines path))
      goldens;
    let rows = quoted_rows doc in
    let missing = List.filter (fun (_, row) -> not (Hashtbl.mem corpus row)) rows in
    List.iter
      (fun (lineno, row) ->
        Printf.printf "%s:%d: quoted row not in any golden output:\n  %s\n" doc lineno row)
      missing;
    if rows = [] then begin
      print_endline "no quoted table rows found";
      exit 1
    end;
    if missing <> [] then exit 1
  | _ ->
    prerr_endline "usage: check_experiments_md.exe EXPERIMENTS.md GOLDEN...";
    exit 2
