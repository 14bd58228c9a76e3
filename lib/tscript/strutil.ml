(* Tcl 8.6's [Tcl_StringCaseMatch], over bytes.  A class is a list of
   characters and ranges (either way round) with no escapes and no
   negation; an unterminated class runs to the end of the pattern. *)
let glob_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pattern.[pi] with
      | '*' ->
        let pi = skip_stars (pi + 1) in
        pi = np || star pi si
      | _ when si = ns -> false
      | '?' -> go (pi + 1) (si + 1)
      | '[' -> in_class (pi + 1) s.[si] (si + 1)
      | '\\' -> pi + 1 < np && pattern.[pi + 1] = s.[si] && go (pi + 2) (si + 1)
      | c -> c = s.[si] && go (pi + 1) (si + 1)
  and skip_stars pi = if pi < np && pattern.[pi] = '*' then skip_stars (pi + 1) else pi
  and star pi si = go pi si || (si < ns && star pi (si + 1))
  and in_class pi c si =
    if pi = np || pattern.[pi] = ']' then false
    else
      let first = pattern.[pi] in
      if pi + 1 < np && pattern.[pi + 1] = '-' then
        pi + 2 < np
        &&
        let last = pattern.[pi + 2] in
        if (first <= c && c <= last) || (last <= c && c <= first) then after_class (pi + 3) si
        else in_class (pi + 3) c si
      else if first = c then after_class (pi + 1) si
      else in_class (pi + 1) c si
  and after_class pi si =
    match String.index_from_opt pattern pi ']' with
    | Some j -> go (j + 1) si
    | None -> go np si
  in
  go 0 0

(* [String.contains] sets up an exception handler per call; this is the
   per-character test of [split] *)
let rec mem_char on c i =
  i < String.length on && (String.unsafe_get on i = c || mem_char on c (i + 1))

(* the end of the field that starts at [i]: its separator's index, or the
   length of [s] *)
let rec field_end s on i =
  if i = String.length s || mem_char on (String.unsafe_get s i) 0 then i
  else field_end s on (i + 1)

(* [f] of each field, straight into an array: a first pass counts the
   separators, then each field is one [String.sub] of the text between two
   of them.  As in Tcl, the empty string splits into no fields. *)
let split s ~on f =
  let n = String.length s in
  if on = "" then Array.init n (fun i -> f (String.make 1 s.[i]))
  else if n = 0 then [||]
  else begin
    let fields = ref 1 in
    for i = 0 to n - 1 do
      if mem_char on (String.unsafe_get s i) 0 then incr fields
    done;
    let stop = field_end s on 0 in
    let a = Array.make !fields (f (String.sub s 0 stop)) in
    let start = ref (stop + 1) in
    for k = 1 to !fields - 1 do
      let stop = field_end s on !start in
      Array.unsafe_set a k (f (String.sub s !start (stop - !start)));
      start := stop + 1
    done;
    a
  end
