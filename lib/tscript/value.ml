let int_of s = int_of_string_opt (String.trim s)

let float_of s =
  match float_of_string_opt (String.trim s) with
  | Some f -> Some f
  | None -> Option.map float_of_int (int_of s)

let truthy s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "0" | "false" | "no" | "off" -> false
  | "1" | "true" | "yes" | "on" -> true
  | other -> (
    match float_of_string_opt other with Some f -> f <> 0.0 | None -> true)

let of_bool b = if b then "1" else "0"

(* loop counters and list indices render the same small integers over and
   over; share one immutable string per value instead of re-allocating *)
let small_ints = Array.init 1024 string_of_int
let of_int i = if i >= 0 && i < 1024 then Array.unsafe_get small_ints i else string_of_int i

let of_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    s

(* An element needs quoting if it is empty or contains list metacharacters. *)
let needs_quoting s =
  s = ""
  || String.exists
       (fun c ->
         match c with
         | ' ' | '\t' | '\n' | '\r' | ';' | '"' | '\\' | '{' | '}' | '[' | ']' | '$' -> true
         | _ -> false)
       s

let braces_balanced s =
  let depth = ref 0 in
  let ok = ref true in
  String.iter
    (fun c ->
      if c = '{' then incr depth
      else if c = '}' then begin
        decr depth;
        if !depth < 0 then ok := false
      end)
    s;
  !ok && !depth = 0

let backslash_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | ' ' | ';' | '"' | '\\' | '{' | '}' | '[' | ']' | '$' ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | _ -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote_element s =
  if not (needs_quoting s) then s
    (* backslashes inside braces would be re-interpreted as escape pairs on
       reparse, so only brace-quote backslash-free strings *)
  else if braces_balanced s && not (String.contains s '\\') then "{" ^ s ^ "}"
  else backslash_escape s

let of_list elems = String.concat " " (List.map quote_element elems)

exception Bad of string

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* [s.[i..j)] with each backslash pair unescaped; only called for spans
   that hold one, so plain elements are a single [String.sub] *)
let unescape_span s i j =
  let b = Buffer.create (j - i) in
  let k = ref i in
  while !k < j do
    let c = s.[!k] in
    if c = '\\' && !k + 1 < String.length s then begin
      Buffer.add_char b
        (match s.[!k + 1] with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | other -> other);
      k := !k + 2
    end
    else begin
      Buffer.add_char b c;
      incr k
    end
  done;
  Buffer.contents b

(* One pass over [s]: find each element's span, then slice it.  A braced
   element is its contents verbatim; quoted and bare elements unescape
   backslash pairs.  Unlike Tcl, a quoted element may be followed directly
   by the next one. *)
let to_list_aux s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && is_space s.[!i] do
      incr i
    done;
    if !i < n then begin
      let start = !i in
      let escaped = ref false in
      match s.[start] with
      | '{' ->
        let depth = ref 1 in
        i := start + 1;
        while !i < n && !depth > 0 do
          (match s.[!i] with
          | '\\' when !i + 1 < n -> incr i
          | '{' -> incr depth
          | '}' -> decr depth
          | _ -> ());
          incr i
        done;
        if !depth > 0 then raise (Bad "unbalanced braces in list");
        if !i < n && not (is_space s.[!i]) then raise (Bad "junk after closing brace");
        out := String.sub s (start + 1) (!i - start - 2) :: !out
      | '"' ->
        i := start + 1;
        while !i < n && s.[!i] <> '"' do
          if s.[!i] = '\\' && !i + 1 < n then begin
            escaped := true;
            i := !i + 2
          end
          else incr i
        done;
        if !i >= n then raise (Bad "unbalanced quotes in list");
        let stop = !i in
        incr i;
        out :=
          (if !escaped then unescape_span s (start + 1) stop
           else String.sub s (start + 1) (stop - start - 1))
          :: !out
      | _ ->
        while !i < n && not (is_space s.[!i]) do
          if s.[!i] = '\\' && !i + 1 < n then begin
            escaped := true;
            i := !i + 2
          end
          else incr i
        done;
        out :=
          (if !escaped then unescape_span s start !i else String.sub s start (!i - start))
          :: !out
    end
  done;
  List.rev !out

let to_list s = try Ok (to_list_aux s) with Bad msg -> Error msg

let to_list_exn s =
  match to_list s with Ok l -> l | Error msg -> invalid_arg ("Value.to_list_exn: " ^ msg)
