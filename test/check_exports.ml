(* Every value a library interface exports must have a user outside its
   own module: a [val] in some lib/**/X.mli whose name appears, as a whole
   word, in no .ml or .mli file other than X.ml and X.mli fails the test.

   Usage: check_exports.exe FILE...

   FILE... is every .ml and .mli file of the tree; those under lib/ that
   end in .mli are the interfaces checked.  The scan is by name only, so a
   name that some other module happens to use for something else keeps a
   dead export alive; but a used export is never reported, so the check
   needs no allowlist. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* the end of the identifier that starts at [i] *)
let rec ident_end s i =
  if i < String.length s && is_ident_char s.[i] then ident_end s (i + 1) else i

(* The words of a source text: maximal runs of identifier characters. *)
let words text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then acc
    else if is_ident_char text.[i] then
      let j = ident_end text i in
      go j (String.sub text i (j - i) :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* (line number, name) of each [val name] in an interface; operators, which
   are written [val ( op )], are skipped. *)
let exported_values text =
  List.concat
    (List.mapi
       (fun i line ->
         let line = String.trim line in
         if String.starts_with ~prefix:"val " line then
           let rest = String.trim (String.sub line 4 (String.length line - 4)) in
           match ident_end rest 0 with
           | 0 -> []
           | j -> [ (i + 1, String.sub rest 0 j) ]
         else [])
       (String.split_on_char '\n' text))

(* lib/core/kernel.mli and lib/core/kernel.ml are one module *)
let module_of path = Filename.remove_extension path

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "usage: check_exports.exe FILE...";
    exit 2
  end;
  (* word -> the modules that name it *)
  let users = Hashtbl.create 4096 in
  List.iter
    (fun path ->
      let m = module_of path in
      List.iter
        (fun w ->
          let ms = Option.value ~default:[] (Hashtbl.find_opt users w) in
          if not (List.mem m ms) then Hashtbl.replace users w (m :: ms))
        (words (read path)))
    files;
  let interfaces =
    List.filter
      (fun p ->
        Filename.check_suffix p ".mli"
        && List.mem "lib" (String.split_on_char '/' p))
      files
  in
  let checked = ref 0 and unused = ref 0 in
  List.iter
    (fun path ->
      let m = module_of path in
      List.iter
        (fun (lineno, name) ->
          incr checked;
          let ms = Option.value ~default:[] (Hashtbl.find_opt users name) in
          if List.for_all (String.equal m) ms then begin
            incr unused;
            Printf.printf "%s:%d: val %s is used by no other module\n" path lineno name
          end)
        (exported_values (read path)))
    interfaces;
  if !checked = 0 then begin
    print_endline "no exported values found";
    exit 1
  end;
  if !unused > 0 then exit 1
