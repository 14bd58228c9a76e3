exception Syntax_error of string

(* The parser scans [src] by index.  A word's text is found by a scan that
   only moves [pos] and counts, and then made with one [String.sub] of the
   source; text with backslash sequences is decoded span by span into a
   string of the length the scan counted.  So parsing allocates what the
   AST keeps, and little else.

   [literal]: the equal literal words of one script share one value, so
   their cached int or list form is filled once and the AST holds one copy
   of each text.  Safe because a cached form is a pure function of the
   string.  Most scripts parsed are one-command proc bodies with a handful
   of literals, so the first [few_literals] live in a list ([few]); only a
   script with more makes a [table], which costs some 22 words before its
   first entry. *)
type lits = No_lit | Lit of string * Value.t * lits

type state = {
  src : string;
  mutable pos : int;
  mutable few : lits;
  mutable n_few : int;
  mutable table : (string, Value.t) Hashtbl.t option;
}

let few_literals = 8

let rec find_lit text = function
  | No_lit -> raise_notrace Not_found
  | Lit (t, v, rest) -> if String.equal t text then v else find_lit text rest

let rec add_lits tbl = function
  | No_lit -> ()
  | Lit (t, v, rest) ->
    Hashtbl.add tbl t v;
    add_lits tbl rest

let literal st text =
  match st.table with
  | Some tbl -> (
    match Hashtbl.find tbl text with
    | v -> v
    | exception Not_found ->
      let v = Value.of_string text in
      Hashtbl.add tbl text v;
      v)
  | None -> (
    match find_lit text st.few with
    | v -> v
    | exception Not_found ->
      let v = Value.of_string text in
      if st.n_few < few_literals then begin
        st.few <- Lit (text, v, st.few);
        st.n_few <- st.n_few + 1
      end
      else begin
        let tbl = Hashtbl.create 32 in
        add_lits tbl st.few;
        Hashtbl.add tbl text v;
        st.few <- No_lit;
        st.table <- Some tbl
      end;
      v)

let state src = { src; pos = 0; few = No_lit; n_few = 0; table = None }

let fail msg = raise (Syntax_error msg)

let is_word_space c = c = ' ' || c = '\t'
let is_command_end c = c = '\n' || c = ';'

(* what ends a run of fragments: a bare word ends at white space or a
   command end (and at [\]] inside brackets), a quoted word at its closing
   quote, an array index at its closing parenthesis *)
type stop = Bare | Bare_in_bracket | Quote | Paren | Never

let stops stop c =
  match stop with
  | Bare -> is_word_space c || is_command_end c
  | Bare_in_bracket -> is_word_space c || is_command_end c || c = ']'
  | Quote -> c = '"'
  | Paren -> c = ')'
  | Never -> false

(* the first [c] in [src.[i..j)], or [j] *)
let rec find src c i j = if i >= j || src.[i] = c then i else find src c (i + 1) j

(* [src.[i..j)], with its backslash sequences decoded into a string of [n]
   characters: each sequence stands for one character ({!Value.backslash}),
   a backslash-newline for a space and a backslash that ends [src] for
   itself.  The text between two sequences is copied as one span. *)
let decode src i j n =
  let b = Bytes.create n in
  let rec go i k =
    let e = find src '\\' i j in
    Bytes.blit_string src i b k (e - i);
    let k = k + (e - i) in
    if e < j then
      if e + 1 = String.length src then begin
        Bytes.set b k '\\';
        go (e + 1) (k + 1)
      end
      else if src.[e + 1] = '\n' then begin
        Bytes.set b k ' ';
        go (e + 2) (k + 1)
      end
      else
        let c, next = Value.backslash src (e + 1) in
        Bytes.set b k c;
        go next (k + 1)
  in
  go i 0;
  Bytes.unsafe_to_string b

(* The literal run from [i]: it ends at the first character that [stop]s
   the word or starts a substitution, or at the end of [src].  Leaves [pos]
   there and gives the run's decoded length [n], counted from [n = 0]; it
   is the run's span length exactly when the run holds no backslash
   sequence (a backslash that ends [src] stands for itself). *)
let rec run_end st stop i n =
  if i >= String.length st.src then begin
    st.pos <- i;
    n
  end
  else
    match st.src.[i] with
    | '$' | '[' ->
      st.pos <- i;
      n
    | c when stops stop c ->
      st.pos <- i;
      n
    | '\\' when i + 1 < String.length st.src ->
      let next = if st.src.[i + 1] = '\n' then i + 2 else snd (Value.backslash st.src (i + 1)) in
      run_end st stop next (n + 1)
    | _ -> run_end st stop (i + 1) (n + 1)

(* the run [src.[i..j)] of decoded length [n] *)
let run_text st i j n = if n = j - i then String.sub st.src i n else decode st.src i j n

(* Brace-quoted word, [pos] at the opening brace: verbatim content with
   nested balanced braces; a backslash protects the character after it from
   counting, and the pair is kept as it is, with Tcl's one exception:
   backslash-newline is a line continuation even inside braces, a space.
   The scan counts those; with none, the content is one [String.sub]. *)
let rec braced_end st i depth nl =
  if i >= String.length st.src then fail "unterminated { brace"
  else
    match st.src.[i] with
    | '\\' when i + 1 < String.length st.src ->
      braced_end st (i + 2) depth (if st.src.[i + 1] = '\n' then nl + 1 else nl)
    | '{' -> braced_end st (i + 1) (depth + 1) nl
    | '}' when depth = 1 ->
      st.pos <- i;
      nl
    | '}' -> braced_end st (i + 1) (depth - 1) nl
    | _ -> braced_end st (i + 1) depth nl

(* [src.[i..j)] with each backslash-newline pair a space *)
let join_lines src i j n =
  let b = Bytes.create n in
  let rec go i k =
    if i < j then
      match src.[i] with
      | '\\' when src.[i + 1] = '\n' ->
        Bytes.set b k ' ';
        go (i + 2) (k + 1)
      | '\\' ->
        Bytes.set b k '\\';
        Bytes.set b (k + 1) src.[i + 1];
        go (i + 2) (k + 2)
      | c ->
        Bytes.set b k c;
        go (i + 1) (k + 1)
  in
  go i 0;
  Bytes.unsafe_to_string b

let parse_braced st =
  let start = st.pos + 1 in
  let nl = braced_end st start 1 0 in
  let stop = st.pos in
  st.pos <- stop + 1;
  if nl = 0 then String.sub st.src start (stop - start)
  else join_lines st.src start stop (stop - start - nl)

(* a comment from [i] to the end of its line; a backslash carries it over
   the next character *)
let rec comment_end src i =
  if i >= String.length src || src.[i] = '\n' then i
  else if src.[i] = '\\' && i + 1 < String.length src then comment_end src (i + 2)
  else comment_end src (i + 1)

let rec skip_name st i =
  if i < String.length st.src then
    match st.src.[i] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> skip_name st (i + 1) | _ -> i
  else i

(* Variable names, [pos] after the [$]: alphanumerics plus underscore, or
   {anything}; a bare name may be followed by an array index in
   parentheses, which is itself substituted ($a($i)).  A braced name of the
   form name(index) is an array element whose index is taken as written
   (${a($i)} reads the element "$i"), as in Tcl. *)
let rec parse_varname st =
  let src = st.src in
  let n = String.length src in
  if st.pos < n && src.[st.pos] = '{' then begin
    let start = st.pos + 1 in
    let close = find src '}' start n in
    if close = n then fail "unterminated ${ variable";
    st.pos <- close + 1;
    let paren = find src '(' start close in
    if paren > start && paren < close && src.[close - 1] = ')' then
      Ast.VarElem
        (String.sub src start (paren - start), [ Ast.Lit (String.sub src (paren + 1) (close - paren - 2)) ])
    else Ast.Var (Value.var_ref (String.sub src start (close - start)))
  end
  else begin
    let start = st.pos in
    let stop = skip_name st start in
    if stop = start then fail "bare $ with no variable name";
    let name = String.sub src start (stop - start) in
    st.pos <- stop;
    if stop < n && src.[stop] = '(' then begin
      st.pos <- stop + 1;
      let index = parse_fragments st Paren in
      if st.pos < n && src.[st.pos] = ')' then st.pos <- st.pos + 1
      else fail "unterminated array index";
      Ast.VarElem (name, index)
    end
    else Ast.Var (Value.var_ref name)
  end

(* Fragments shared by quoted and bare words, up to the character [stop]
   names, which is not consumed: literal runs between substitutions *)
and parse_fragments st stop =
  let start = st.pos in
  let n = run_end st stop start 0 in
  let j = st.pos in
  if j > start then
    let lit = Ast.Lit (run_text st start j n) in
    lit :: substitutions st stop
  else substitutions st stop

(* [pos] after a literal run *)
and substitutions st stop =
  if st.pos >= String.length st.src then []
  else
    match st.src.[st.pos] with
    | '$' ->
      st.pos <- st.pos + 1;
      let var = parse_varname st in
      var :: parse_fragments st stop
    | '[' ->
      st.pos <- st.pos + 1;
      let sub = Ast.Cmd (parse_script st ~in_bracket:true) in
      sub :: parse_fragments st stop
    | _ -> []

(* a word with nothing to substitute is its value *)
and word st = function
  | [] -> Ast.Literal (literal st "")
  | [ Ast.Lit text ] -> Ast.Literal (literal st text)
  | frags -> Ast.Frags frags

(* A bare word: a single literal run is the word's value, with no
   fragment list in between *)
and parse_bare st stop =
  let start = st.pos in
  let n = run_end st stop start 0 in
  let j = st.pos in
  if j = String.length st.src || stops stop st.src.[j] then
    Ast.Literal (literal st (run_text st start j n))
  else if j > start then
    let lit = Ast.Lit (run_text st start j n) in
    word st (lit :: substitutions st stop)
  else word st (substitutions st stop)

and parse_word st ~in_bracket =
  match st.src.[st.pos] with
  | '{' -> Ast.braced (literal st (parse_braced st))
  | '"' ->
    st.pos <- st.pos + 1;
    let frags = parse_fragments st Quote in
    if st.pos < String.length st.src then st.pos <- st.pos + 1
    else fail "unterminated quoted word";
    word st frags
  | _ -> parse_bare st (if in_bracket then Bare_in_bracket else Bare)

(* The words of one command, up to (not past) its terminator *)
and parse_words st ~in_bracket =
  let src = st.src in
  let n = String.length src in
  let i = ref st.pos in
  while !i < n && is_word_space src.[!i] do
    incr i
  done;
  st.pos <- !i;
  if !i = n then []
  else
    match src.[!i] with
    | ']' when in_bracket -> []
    | c when is_command_end c -> []
    | _ ->
      let w = parse_word st ~in_bracket in
      w :: parse_words st ~in_bracket

and parse_script st ~in_bracket = commands st ~in_bracket []

(* the commands of a script, up to its end or (in brackets) its closing
   bracket, consed onto [acc] *)
and commands st ~in_bracket acc =
  let src = st.src in
  let n = String.length src in
  (* skip whitespace and command separators *)
  let i = ref st.pos in
  while !i < n && (is_word_space src.[!i] || is_command_end src.[!i]) do
    incr i
  done;
  st.pos <- !i;
  if !i = n then begin
    if in_bracket then fail "unterminated [ bracket";
    List.rev acc
  end
  else
    match src.[!i] with
    | ']' when in_bracket ->
      st.pos <- !i + 1;
      List.rev acc
    | '#' ->
      st.pos <- comment_end src !i;
      commands st ~in_bracket acc
    | _ -> (
      match parse_words st ~in_bracket with
      | [] -> commands st ~in_bracket acc
      | words -> commands st ~in_bracket (Ast.command words :: acc))

let script src =
  let st = state src in
  parse_script st ~in_bracket:false

let fragments src =
  let st = state src in
  parse_fragments st Never

let script_result src =
  match script src with
  | s -> Ok s
  | exception Syntax_error msg -> Error msg
