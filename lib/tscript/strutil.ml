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

(* A set of characters as five 63-bit masks, held in [split]'s own
   variables so that building and testing it allocates nothing: code [c] is
   bit [c - 63k] of mask [k], for the [k] with [63k <= c < 63(k + 1)]. *)
let[@inline] mem m0 m1 m2 m3 m4 c =
  let c = Char.code c in
  (if c < 126 then if c < 63 then m0 lsr c else m1 lsr (c - 63)
   else if c < 189 then m2 lsr (c - 126)
   else if c < 252 then m3 lsr (c - 189)
   else m4 lsr (c - 252))
  land 1
  = 1

(* [f] of each field, straight into an array: a first pass counts the
   separators, then each field is one [String.sub] of the text between two
   of them.  As in Tcl, the empty string splits into no fields. *)
let split s ~on f =
  let n = String.length s in
  if on = "" then Array.init n (fun i -> f (String.make 1 s.[i]))
  else if n = 0 then [||]
  else begin
    let m0 = ref 0 and m1 = ref 0 and m2 = ref 0 and m3 = ref 0 and m4 = ref 0 in
    for i = 0 to String.length on - 1 do
      let c = Char.code on.[i] in
      if c < 63 then m0 := !m0 lor (1 lsl c)
      else if c < 126 then m1 := !m1 lor (1 lsl (c - 63))
      else if c < 189 then m2 := !m2 lor (1 lsl (c - 126))
      else if c < 252 then m3 := !m3 lor (1 lsl (c - 189))
      else m4 := !m4 lor (1 lsl (c - 252))
    done;
    let m0 = !m0 and m1 = !m1 and m2 = !m2 and m3 = !m3 and m4 = !m4 in
    (* the loops below keep [i] within [0, n) *)
    let fields = ref 1 in
    for i = 0 to n - 1 do
      if mem m0 m1 m2 m3 m4 (String.unsafe_get s i) then incr fields
    done;
    let stop = ref 0 in
    while !stop < n && not (mem m0 m1 m2 m3 m4 (String.unsafe_get s !stop)) do
      incr stop
    done;
    let a = Array.make !fields (f (String.sub s 0 !stop)) in
    let start = ref (!stop + 1) and k = ref 1 in
    for i = !start to n - 1 do
      if mem m0 m1 m2 m3 m4 (String.unsafe_get s i) then begin
        a.(!k) <- f (String.sub s !start (i - !start));
        incr k;
        start := i + 1
      end
    done;
    if !fields > 1 then a.(!k) <- f (String.sub s !start (n - !start));
    a
  end
