let glob_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* memoised recursion over (pattern index, string index) *)
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r = compute pi si in
      Hashtbl.replace memo (pi, si) r;
      r
  and compute pi si =
    if pi >= np then si >= ns
    else
      match pattern.[pi] with
      | '*' -> go (pi + 1) si || (si < ns && go pi (si + 1))
      | '?' -> si < ns && go (pi + 1) (si + 1)
      | '[' ->
        if si >= ns then false
        else begin
          (* character class: [abc], [a-z], [^..] not supported by Tcl *)
          let rec scan_end j = if j < np && pattern.[j] <> ']' then scan_end (j + 1) else j in
          let close = scan_end (pi + 1) in
          if close >= np then (* unterminated class: literal [ *)
            si < ns && s.[si] = '[' && go (pi + 1) (si + 1)
          else begin
            let cls = String.sub pattern (pi + 1) (close - pi - 1) in
            let c = s.[si] in
            let rec matches k =
              if k >= String.length cls then false
              else if k + 2 < String.length cls && cls.[k + 1] = '-' then
                (c >= cls.[k] && c <= cls.[k + 2]) || matches (k + 3)
              else cls.[k] = c || matches (k + 1)
            in
            matches 0 && go (close + 1) (si + 1)
          end
        end
      | '\\' when pi + 1 < np ->
        si < ns && s.[si] = pattern.[pi + 1] && go (pi + 2) (si + 1)
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

type spec = {
  minus : bool;
  zero : bool;
  width : int option;
  precision : int option;
  conv : char;
}

let parse_spec fmt i =
  let n = String.length fmt in
  let minus = ref false and zero = ref false in
  let i = ref i in
  let flag_loop () =
    let continue = ref true in
    while !continue && !i < n do
      match fmt.[!i] with
      | '-' ->
        minus := true;
        incr i
      | '0' ->
        zero := true;
        incr i
      | _ -> continue := false
    done
  in
  flag_loop ();
  let read_int () =
    let start = !i in
    while !i < n && fmt.[!i] >= '0' && fmt.[!i] <= '9' do
      incr i
    done;
    if !i = start then None else Some (int_of_string (String.sub fmt start (!i - start)))
  in
  let width = read_int () in
  let precision =
    if !i < n && fmt.[!i] = '.' then begin
      incr i;
      match read_int () with Some p -> Some p | None -> Some 0
    end
    else None
  in
  if !i >= n then Error "truncated format specifier"
  else Ok ({ minus = !minus; zero = !zero; width; precision; conv = fmt.[!i] }, !i + 1)

let pad spec s =
  match spec.width with
  | None -> s
  | Some w when String.length s >= w -> s
  | Some w ->
    let fill = w - String.length s in
    if spec.minus then s ^ String.make fill ' '
    else if spec.zero && String.length s > 0 && (s.[0] = '-' || (s.[0] >= '0' && s.[0] <= '9')) then
      if s.[0] = '-' then "-" ^ String.make fill '0' ^ String.sub s 1 (String.length s - 1)
      else String.make fill '0' ^ s
    else String.make fill ' ' ^ s

let format fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let n = String.length fmt in
  let rec go i args =
    if i >= n then
      Ok (Buffer.contents buf)
    else if fmt.[i] = '%' then
      if i + 1 < n && fmt.[i + 1] = '%' then begin
        Buffer.add_char buf '%';
        go (i + 2) args
      end
      else
        match parse_spec fmt (i + 1) with
        | Error e -> Error e
        | Ok (spec, next) -> (
          let take () =
            match args with [] -> Error "not enough arguments for format" | a :: rest -> Ok (a, rest)
          in
          let num_arg conv_fn render =
            match take () with
            | Error e -> Error e
            | Ok (a, rest) -> (
              match conv_fn a with
              | None -> Error (Printf.sprintf "expected number but got %S" a)
              | Some v ->
                Buffer.add_string buf (pad spec (render v));
                go next rest)
          in
          match spec.conv with
          | 's' -> (
            match take () with
            | Error e -> Error e
            | Ok (a, rest) ->
              let a =
                match spec.precision with
                | Some p when p < String.length a -> String.sub a 0 p
                | Some _ | None -> a
              in
              Buffer.add_string buf (pad spec a);
              go next rest)
          | 'd' | 'i' -> num_arg Value.int_of string_of_int
          | 'x' -> num_arg Value.int_of (Printf.sprintf "%x")
          | 'X' -> num_arg Value.int_of (Printf.sprintf "%X")
          | 'o' -> num_arg Value.int_of (Printf.sprintf "%o")
          | 'c' -> num_arg Value.int_of (fun v -> String.make 1 (Char.chr (v land 0xFF)))
          | 'f' ->
            let p = Option.value ~default:6 spec.precision in
            num_arg Value.float_of (fun v -> Printf.sprintf "%.*f" p v)
          | 'e' ->
            let p = Option.value ~default:6 spec.precision in
            num_arg Value.float_of (fun v -> Printf.sprintf "%.*e" p v)
          | 'g' ->
            let p = Option.value ~default:6 spec.precision in
            num_arg Value.float_of (fun v -> Printf.sprintf "%.*g" p v)
          | c -> Error (Printf.sprintf "unsupported format conversion %%%c" c))
    else begin
      Buffer.add_char buf fmt.[i];
      go (i + 1) args
    end
  in
  go 0 args

(* [String.contains] sets up an exception handler per call; this is the
   per-character test of [split] *)
let rec mem_char on c i =
  i < String.length on && (String.unsafe_get on i = c || mem_char on c (i + 1))

(* Scans right to left so the list is built in order; each element is one
   [String.sub] of the text between two separators.  As in Tcl, the empty
   string splits into the empty list. *)
let split s ~on =
  let n = String.length s in
  if on = "" then List.init n (fun i -> String.make 1 s.[i])
  else if n = 0 then []
  else begin
    let out = ref [] in
    let stop = ref n in
    for i = n - 1 downto 0 do
      if mem_char on (String.unsafe_get s i) 0 then begin
        out := String.sub s (i + 1) (!stop - i - 1) :: !out;
        stop := i
      end
    done;
    String.sub s 0 !stop :: !out
  end

let common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0
