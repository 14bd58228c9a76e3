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

(* How Tcl 8.6 writes a list element (TclScanElement, TclConvertElement):
   as it is, in braces, or with backslash escapes.  [Mask] escapes all but
   braces; Tcl picks it when a closing bracket or an inner double quote is
   the only reason to quote. *)
type conversion = Plain | Brace | Escape | Mask

let scan s =
  let n = String.length s in
  (* a leading brace or quote would be read as list syntax *)
  let quote = ref (n = 0 || s.[0] = '{' || s.[0] = '"') in
  let brace = ref !quote and mask = ref false and must_escape = ref false in
  let depth = ref 0 and i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '{' -> incr depth
    | '}' ->
      decr depth;
      if !depth < 0 then must_escape := true
    | ']' | '"' ->
      quote := true;
      mask := true
    | '[' | '$' | ';' | ' ' | '\t' | '\n' | '\r' | '\x0b' | '\x0c' ->
      quote := true;
      brace := true
    (* braces cannot hold a trailing backslash or a backslash-newline; an
       escaped brace or backslash does not nest *)
    | '\\' when !i = n - 1 || s.[!i + 1] = '\n' -> must_escape := true
    | '\\' ->
      (match s.[!i + 1] with '{' | '}' | '\\' -> incr i | _ -> ());
      quote := true;
      brace := true
    | _ -> ());
    incr i
  done;
  if !must_escape || !depth <> 0 then Escape
  else if not !quote then Plain
  else if !mask && not !brace then Mask
  else Brace

(* Tcl writes a vertical tab or form feed as [\v] or [\f], which the reader
   below does not decode; a backslash and the raw character reads back in
   both. *)
let escape ~braces s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | ('{' | '}') when not braces -> Buffer.add_char b c
      | '{' | '}' | ']' | '[' | '$' | ';' | ' ' | '\\' | '"' | '\x0b' | '\x0c' ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* a list's first element must not read as a comment either *)
let quote_element ~first s =
  match (scan s, first && String.starts_with ~prefix:"#" s) with
  | Escape, true -> "\\" ^ escape ~braces:true s
  | (Plain | Mask), true | Brace, _ -> "{" ^ s ^ "}"
  | Plain, false -> s
  | Escape, false -> escape ~braces:true s
  | Mask, false -> escape ~braces:false s

let of_list = function
  | [] -> ""
  | first :: rest ->
    let rest = List.map (quote_element ~first:false) rest in
    String.concat " " (quote_element ~first:true first :: rest)

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

(* Tcl's complaint about what follows a closing brace or quote at [i]: up
   to 20 characters of it, stopping at a space *)
let junk_after what s i =
  let j = ref i in
  while !j < String.length s && (not (is_space s.[!j])) && !j < i + 20 do
    incr j
  done;
  raise
    (Bad
       (Printf.sprintf "list element in %s followed by \"%s\" instead of space" what
          (String.sub s i (!j - i))))

(* One pass over [s]: find each element's span, then slice it.  A braced
   element is its contents verbatim; quoted and bare elements unescape
   backslash pairs.  As in Tcl, a closing brace or quote must end the
   element, and the messages are Tcl's. *)
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
        if !depth > 0 then raise (Bad "unmatched open brace in list");
        if !i < n && not (is_space s.[!i]) then junk_after "braces" s !i;
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
        if !i >= n then raise (Bad "unmatched open quote in list");
        let stop = !i in
        incr i;
        if !i < n && not (is_space s.[!i]) then junk_after "quotes" s !i;
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
