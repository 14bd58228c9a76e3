module Decimal = Tacoma_util.Decimal

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

let escape ~braces s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\x0b' -> Buffer.add_string b "\\v"
      | '\x0c' -> Buffer.add_string b "\\f"
      | ('{' | '}') when not braces -> Buffer.add_char b c
      | '{' | '}' | ']' | '[' | '$' | ';' | ' ' | '\\' | '"' ->
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

exception Bad_list of string

(* Tcl's list white space: a vertical tab or form feed separates elements
   too *)
let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\x0b' || c = '\x0c'

let octal_digit s i =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '7' then Char.code s.[i] - 48 else -1

let hex_digit s i =
  if i >= String.length s then -1
  else
    match s.[i] with
    | '0' .. '9' as c -> Char.code c - 48
    | 'a' .. 'f' as c -> Char.code c - 87
    | 'A' .. 'F' as c -> Char.code c - 55
    | _ -> -1

(* Tcl 8.6's TclParseBackslash for the sequences TScript decodes: [\xh] or
   [\xhh] (no digit: an [x]), one to three octal digits (a third only while
   the value stays below 256), and the letters n t r f v.  Any other
   character stands for itself; [\a], [\b], [\u] and backslash-newline
   are not decoded (DESIGN.md).  The code is a byte: a string is bytes. *)
let backslash s i =
  match s.[i] with
  | 'n' -> ('\n', i + 1)
  | 't' -> ('\t', i + 1)
  | 'r' -> ('\r', i + 1)
  | 'f' -> ('\x0c', i + 1)
  | 'v' -> ('\x0b', i + 1)
  | 'x' -> (
    match hex_digit s (i + 1) with
    | -1 -> ('x', i + 1)
    | h -> (
      match hex_digit s (i + 2) with
      | -1 -> (Char.chr h, i + 2)
      | l -> (Char.chr ((h * 16) + l), i + 3)))
  | '0' .. '7' as c -> (
    let v = Char.code c - 48 in
    match octal_digit s (i + 1) with
    | -1 -> (Char.chr v, i + 1)
    | d -> (
      let v = (v * 8) + d in
      match octal_digit s (i + 2) with
      | d when d >= 0 && v < 0x20 -> (Char.chr ((v * 8) + d), i + 3)
      | _ -> (Char.chr v, i + 2)))
  | c -> (c, i + 1)

(* [s.[i..j)] with each backslash sequence decoded; only called for spans
   that hold one, so plain elements are a single [String.sub] *)
let unescape_span s i j =
  let b = Buffer.create (j - i) in
  let k = ref i in
  while !k < j do
    let c = s.[!k] in
    if c = '\\' && !k + 1 < String.length s then begin
      let c, next = backslash s (!k + 1) in
      Buffer.add_char b c;
      k := next
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
    (Bad_list
       (Printf.sprintf "list element in %s followed by \"%s\" instead of space" what
          (String.sub s i (!j - i))))

(* The list reader walks [s] one element at a time.  After [next_element]
   returns true, [start, stop) is the element just read, without its
   braces or quotes, and [escaped] says whether it holds a backslash
   sequence to decode.  A braced element is its contents verbatim; quoted
   and bare elements unescape backslash pairs.  As in Tcl, a closing brace
   or quote must end the element, and the messages are Tcl's. *)
type cursor = { mutable pos : int; mutable start : int; mutable stop : int; mutable escaped : bool }

let cursor () = { pos = 0; start = 0; stop = 0; escaped = false }

let next_element s c =
  let n = String.length s in
  let i = ref c.pos in
  while !i < n && is_space s.[!i] do
    incr i
  done;
  if !i >= n then begin
    c.pos <- n;
    false
  end
  else begin
    let start = !i in
    c.escaped <- false;
    (match s.[start] with
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
      if !depth > 0 then raise (Bad_list "unmatched open brace in list");
      if !i < n && not (is_space s.[!i]) then junk_after "braces" s !i;
      c.start <- start + 1;
      c.stop <- !i - 1
    | '"' ->
      i := start + 1;
      while !i < n && s.[!i] <> '"' do
        if s.[!i] = '\\' && !i + 1 < n then begin
          c.escaped <- true;
          i := !i + 2
        end
        else incr i
      done;
      if !i >= n then raise (Bad_list "unmatched open quote in list");
      c.start <- start + 1;
      c.stop <- !i;
      incr i;
      if !i < n && not (is_space s.[!i]) then junk_after "quotes" s !i
    | _ ->
      while !i < n && not (is_space s.[!i]) do
        if s.[!i] = '\\' && !i + 1 < n then begin
          c.escaped <- true;
          i := !i + 2
        end
        else incr i
      done;
      c.start <- start;
      c.stop <- !i);
    c.pos <- !i;
    true
  end

let element s c =
  if c.escaped then unescape_span s c.start c.stop else String.sub s c.start (c.stop - c.start)

let to_list_aux s =
  let c = cursor () in
  let out = ref [] in
  while next_element s c do
    out := element s c :: !out
  done;
  List.rev !out

(* [f] of each element, straight into an array: a first pass counts the
   elements (and finds any error), so nothing is built twice *)
let read_elements s f =
  let c = cursor () in
  let n = ref 0 in
  while next_element s c do
    incr n
  done;
  if !n = 0 then [||]
  else begin
    let c = cursor () in
    ignore (next_element s c);
    let a = Array.make !n (f (element s c)) in
    for k = 1 to !n - 1 do
      ignore (next_element s c);
      Array.unsafe_set a k (f (element s c))
    done;
    a
  end

let to_list s = try Ok (to_list_aux s) with Bad_list msg -> Error msg

let to_list_exn s =
  match to_list s with Ok l -> l | Error msg -> invalid_arg ("Value.to_list_exn: " ^ msg)

(* ---- interpreter values ------------------------------------------------ *)

(* Tcl 8's dual-ported object, without in-place update.  A value is created
   from one form, which is what it means; the other forms are caches filled
   on first use.  [Str]'s [rep] is a pure function of [s], and the string of
   [Int] or [Lst] is rendered on first use by [Decimal.of_int] or [of_list]'s rule,
   so every form agrees with the string whichever is asked for first.  The
   mutable fields are only ever filled, never changed in meaning. *)
type t =
  | Str of { s : string; mutable rep : rep }
  | Int of { i : int; mutable is : string }
  | Lst of { elems : t array; mutable ls : string }

and rep = No_rep | Int_rep of int | List_rep of t array

(* marks a string not rendered yet: compared with [==], and no other string
   is physically this one *)
let unrendered = Bytes.to_string (Bytes.of_string "unrendered")
let of_string s = Str { s; rep = No_rep }

(* the shared values below are fully rendered, so nothing ever writes to
   them: they are safe to share between concurrent simulations.  Loop
   counters and list indices share the first 256 integers *)
let empty = Lst { elems = [||]; ls = "" }
let small = Array.init 256 (fun i -> Int { i; is = Decimal.of_int i })

let int i =
  if i >= 0 && i < Array.length small then Array.unsafe_get small i
  else Int { i; is = unrendered }

let of_elements elems = if Array.length elems = 0 then empty else Lst { elems; ls = unrendered }

let rec to_string v =
  match v with
  | Str r -> r.s
  | Int r ->
    if r.is == unrendered then r.is <- Decimal.of_int r.i;
    r.is
  | Lst r ->
    if r.ls == unrendered then r.ls <- render r.elems;
    r.ls

(* [of_list] over the elements' strings *)
and render elems =
  let b = Buffer.create 64 in
  Array.iteri
    (fun k e ->
      if k > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (quote_element ~first:(k = 0) (to_string e)))
    elems;
  Buffer.contents b

exception Not_int

let to_int_exn v =
  match v with
  | Int r -> r.i
  | Str { rep = Int_rep i; _ } -> i
  | Str r -> (
    match int_of r.s with
    | Some i ->
      r.rep <- Int_rep i;
      i
    | None -> raise_notrace Not_int)
  | Lst _ -> ( match int_of (to_string v) with Some i -> i | None -> raise_notrace Not_int)

let to_int v = match to_int_exn v with i -> Some i | exception Not_int -> None

let elements v =
  match v with
  | Lst r -> r.elems
  | Str { rep = List_rep elems; _ } -> elems
  | Str r ->
    let elems = read_elements r.s of_string in
    r.rep <- List_rep elems;
    elems
  (* an integer's string is one bare word *)
  | Int _ -> [| v |]

(* ---- variables ---------------------------------------------------------- *)

type cell = { mutable v : t; mutable elems : (string, t) Hashtbl.t option; home : int }
type var_ref = { name : string; mutable stamp : int; mutable cell : cell }

(* compared with [==]: no other value is physically this one *)
let absent = Str { s = "<absent>"; rep = No_rep }
let cell home v = { v; elems = None; home }

(* never written: a stamp of -1 matches no scope *)
let nowhere = cell (-1) absent
let var_ref name = { name; stamp = -1; cell = nowhere }
