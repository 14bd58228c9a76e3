exception Syntax_error of string

(* [literals]: the equal literal words of one script share one value, so
   their cached int or list form is filled once and the AST holds one copy
   of each text.  Safe because a cached form is a pure function of the
   string. *)
type state = { src : string; mutable pos : int; literals : (string, Value.t) Hashtbl.t }

let literal st text =
  match Hashtbl.find_opt st.literals text with
  | Some v -> v
  | None ->
    let v = Value.of_string text in
    Hashtbl.add st.literals text v;
    v

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let fail msg = raise (Syntax_error msg)

let is_word_space c = c = ' ' || c = '\t'
let is_command_end c = c = '\n' || c = ';'

(* Variable names: alphanumerics plus underscore, or {anything}; a bare
   name may be followed by an array index in parentheses, which is itself
   substituted ($a($i)). *)
let parse_varname st ~parse_index =
  match peek st with
  | Some '{' ->
    advance st;
    let start = st.pos in
    let rec go () =
      match peek st with
      | None -> fail "unterminated ${ variable"
      | Some '}' ->
        let name = String.sub st.src start (st.pos - start) in
        advance st;
        Ast.Var (Value.var_ref name)
      | Some _ ->
        advance st;
        go ()
    in
    go ()
  | Some _ | None -> (
    let start = st.pos in
    let rec go () =
      match peek st with
      | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') ->
        advance st;
        go ()
      | Some _ | None -> ()
    in
    go ();
    if st.pos = start then fail "bare $ with no variable name";
    let name = String.sub st.src start (st.pos - start) in
    match peek st with
    | Some '(' ->
      advance st;
      let index = parse_index st in
      (match peek st with
      | Some ')' -> advance st
      | Some _ | None -> fail "unterminated array index");
      Ast.VarElem (name, index)
    | Some _ | None -> Ast.Var (Value.var_ref name))

(* Brace-quoted word: verbatim content with nested balanced braces;
   backslash protects a following brace character from counting. *)
let parse_braced st =
  advance st (* opening { *);
  let buf = Buffer.create 32 in
  let depth = ref 1 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated { brace"
    | Some '\\' when st.pos + 1 < String.length st.src ->
      (* braces preserve backslash pairs verbatim, with Tcl's one exception:
         backslash-newline is a line continuation even inside braces *)
      advance st;
      if st.src.[st.pos] = '\n' then Buffer.add_char buf ' '
      else begin
        Buffer.add_char buf '\\';
        Buffer.add_char buf st.src.[st.pos]
      end;
      advance st;
      go ()
    | Some '{' ->
      incr depth;
      Buffer.add_char buf '{';
      advance st;
      go ()
    | Some '}' ->
      decr depth;
      advance st;
      if !depth > 0 then begin
        Buffer.add_char buf '}';
        go ()
      end
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

(* Fragments shared by quoted and bare words.  [stop] decides which raw
   character terminates the word (the terminator is not consumed). *)
let rec parse_fragments st ~stop =
  let frags = ref [] in
  let buf = Buffer.create 32 in
  let flush_lit () =
    if Buffer.length buf > 0 then begin
      frags := Ast.Lit (Buffer.contents buf) :: !frags;
      Buffer.clear buf
    end
  in
  let rec go () =
    match peek st with
    | None -> ()
    | Some c when stop c -> ()
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> Buffer.add_char buf '\\'
      | Some '\n' ->
        Buffer.add_char buf ' ';
        advance st
      | Some _ ->
        let c, next = Value.backslash st.src st.pos in
        Buffer.add_char buf c;
        st.pos <- next);
      go ()
    | Some '$' ->
      advance st;
      flush_lit ();
      frags :=
        parse_varname st ~parse_index:(fun st -> parse_fragments st ~stop:(fun c -> c = ')'))
        :: !frags;
      go ()
    | Some '[' ->
      advance st;
      flush_lit ();
      let sub = parse_script st ~in_bracket:true in
      frags := Ast.Cmd sub :: !frags;
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  flush_lit ();
  List.rev !frags

and parse_quoted st =
  advance st (* opening double quote *);
  let frags = parse_fragments st ~stop:(fun c -> c = '"') in
  (match peek st with
  | Some '"' -> advance st
  | Some _ | None -> fail "unterminated quoted word");
  frags

(* a word with nothing to substitute is its value *)
and word st = function
  | [] -> Ast.Literal (literal st "")
  | [ Ast.Lit text ] -> Ast.Literal (literal st text)
  | frags -> Ast.Frags frags

(* One command: list of words.  Assumes leading spaces skipped.  Stops
   before the command terminator. *)
and parse_command st ~in_bracket =
  let words = ref [] in
  let rec go () =
    (* skip intra-command spaces *)
    while (match peek st with Some c when is_word_space c -> true | _ -> false) do
      advance st
    done;
    match peek st with
    | None -> ()
    | Some ']' when in_bracket -> ()
    | Some c when is_command_end c -> ()
    | Some '{' ->
      words := Ast.braced (literal st (parse_braced st)) :: !words;
      go ()
    | Some '"' ->
      words := word st (parse_quoted st) :: !words;
      go ()
    | Some _ ->
      let frags =
        parse_fragments st ~stop:(fun c ->
            is_word_space c || is_command_end c || (in_bracket && c = ']'))
      in
      words := word st frags :: !words;
      go ()
  in
  go ();
  List.rev !words

and parse_script st ~in_bracket =
  let commands = ref [] in
  let rec go () =
    (* skip whitespace and command separators *)
    let rec skip () =
      match peek st with
      | Some c when is_word_space c || is_command_end c ->
        advance st;
        skip ()
      | Some _ | None -> ()
    in
    skip ();
    match peek st with
    | None -> if in_bracket then fail "unterminated [ bracket"
    | Some ']' when in_bracket -> advance st
    | Some '#' ->
      (* comment to end of line *)
      let rec eat () =
        match peek st with
        | Some '\n' | None -> ()
        | Some '\\' when st.pos + 1 < String.length st.src ->
          advance st;
          advance st;
          eat ()
        | Some _ ->
          advance st;
          eat ()
      in
      eat ();
      go ()
    | Some _ ->
      let words = parse_command st ~in_bracket in
      if words <> [] then commands := Ast.command words :: !commands;
      go ()
  in
  go ();
  List.rev !commands

let script src =
  let st = { src; pos = 0; literals = Hashtbl.create 8 } in
  let result = parse_script st ~in_bracket:false in
  result

let fragments src =
  let st = { src; pos = 0; literals = Hashtbl.create 8 } in
  parse_fragments st ~stop:(fun _ -> false)

let script_result src =
  match script src with
  | s -> Ok s
  | exception Syntax_error msg -> Error msg
