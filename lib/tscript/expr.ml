exception Error of string

type num = Int of int | Float of float | Str of Value.t

let fail msg = raise (Error msg)

(* --- lexer ------------------------------------------------------------ *)

(* The lexer scans [src] by index.  A token's text is one [String.sub] of
   the source and an operator is a constant string; a token with a payload
   leaves it in [num] or [text], where the parser takes it. *)
type token =
  | Tnum (* [num] *)
  | Tstr (* [text] *)
  | Tvar (* [text] *)
  | Tcmd (* [text] *)
  | Tident (* [text]: a function name *)
  | Top of string
  | Tlparen
  | Trparen
  | Tcomma
  | Teof

type lexer = {
  src : string;
  mutable pos : int;
  mutable tok : token;
  mutable num : num;
  mutable text : string;
  mutable pure : bool; (* of the node the parser built last; see [wrap] *)
}

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

(* the index of the first character from [i] that is not [ok], or [n] *)
let rec skip ok src i n = if i < n && ok src.[i] then skip ok src (i + 1) n else i

(* [src.[i..j)], all digits, as an int, or -1 when it is past [max_int] *)
let rec digits src i j acc =
  if i = j then acc
  else
    let d = Char.code src.[i] - 48 in
    if acc > (max_int - d) / 10 then -1 else digits src (i + 1) j ((acc * 10) + d)

(* the index of the [closing] character that balances the [opening] one at
   [i], or -1 when none does; [depth] counts from 0 *)
let rec close_of src opening closing i n depth =
  if i >= n then -1
  else
    let c = src.[i] in
    let depth = if c = opening then depth + 1 else if c = closing then depth - 1 else depth in
    if depth = 0 then i else close_of src opening closing (i + 1) n depth

let float_of src i j = Float (float_of_string (String.sub src i (j - i)))

let take lx tok stop =
  lx.pos <- stop;
  tok

let number lx start =
  let src = lx.src and n = String.length lx.src in
  let seen_dot = ref false and seen_exp = ref false in
  let continue = ref true in
  while !continue && lx.pos < n do
    let d = src.[lx.pos] in
    if is_digit d then lx.pos <- lx.pos + 1
    else if d = '.' && (not !seen_dot) && not !seen_exp then begin
      seen_dot := true;
      lx.pos <- lx.pos + 1
    end
    else if (d = 'e' || d = 'E') && (not !seen_exp) && lx.pos + 1 < n
            && (is_digit src.[lx.pos + 1]
               || ((src.[lx.pos + 1] = '+' || src.[lx.pos + 1] = '-')
                  && lx.pos + 2 < n && is_digit src.[lx.pos + 2])) then begin
      seen_exp := true;
      lx.pos <- lx.pos + if is_digit src.[lx.pos + 1] then 1 else 2
    end
    else continue := false
  done;
  lx.num <-
    (if !seen_dot || !seen_exp then float_of src start lx.pos
     else match digits src start lx.pos 0 with -1 -> float_of src start lx.pos | i -> Int i);
  Tnum

let next_token lx =
  let src = lx.src in
  let n = String.length src in
  lx.pos <- skip (fun c -> c = ' ' || c = '\t' || c = '\n') src lx.pos n;
  if lx.pos >= n then Teof
  else
    let c = src.[lx.pos] in
    let start = lx.pos in
    if is_digit c || (c = '.' && start + 1 < n && is_digit src.[start + 1]) then number lx start
    else if c = '$' then
      if start + 1 < n && src.[start + 1] = '{' then begin
        let close = skip (fun c -> c <> '}') src (start + 2) n in
        if close = n then fail "unterminated ${ in expression";
        lx.text <- String.sub src (start + 2) (close - start - 2);
        take lx Tvar (close + 1)
      end
      else begin
        let stop = skip is_ident_char src (start + 1) n in
        if stop = start + 1 then fail "bare $ in expression";
        (* array element: pass "name(raw index)" through to the lookup,
           which substitutes the index in the caller's scope *)
        let stop =
          if stop < n && src.[stop] = '(' then begin
            let close = close_of src '(' ')' stop n 0 in
            if close < 0 then fail "unterminated array index in expression";
            close + 1
          end
          else stop
        in
        lx.text <- String.sub src (start + 1) (stop - start - 1);
        take lx Tvar stop
      end
    else if c = '[' then begin
      (* balanced bracket scan; the interpreter evaluates the inside *)
      let close = close_of src '[' ']' start n 0 in
      if close < 0 then fail "unterminated [ in expression";
      lx.text <- String.sub src (start + 1) (close - start - 1);
      take lx Tcmd (close + 1)
    end
    else if c = '"' || c = '{' then begin
      let close =
        if c = '{' then close_of src '{' '}' start n 0
        else match skip (fun c -> c <> '"') src (start + 1) n with i when i = n -> -1 | i -> i
      in
      if close < 0 then fail "unterminated string in expression";
      lx.text <- String.sub src (start + 1) (close - start - 1);
      take lx Tstr (close + 1)
    end
    else if is_ident_char c then begin
      let stop = skip is_ident_char src start n in
      lx.pos <- stop;
      if stop - start = 2 then
        match (c, src.[start + 1]) with
        | 'e', 'q' -> Top "eq"
        | 'n', 'e' -> Top "ne"
        | 'i', 'n' -> Top "in"
        | 'n', 'i' -> Top "ni"
        | _ ->
          lx.text <- String.sub src start 2;
          Tident
      else begin
        lx.text <- String.sub src start (stop - start);
        Tident
      end
    end
    else
      let d = if start + 1 < n then src.[start + 1] else ' ' in
      match (c, d) with
      | '=', '=' -> take lx (Top "==") (start + 2)
      | '!', '=' -> take lx (Top "!=") (start + 2)
      | '<', '=' -> take lx (Top "<=") (start + 2)
      | '>', '=' -> take lx (Top ">=") (start + 2)
      | '&', '&' -> take lx (Top "&&") (start + 2)
      | '|', '|' -> take lx (Top "||") (start + 2)
      | '*', '*' -> take lx (Top "**") (start + 2)
      | '+', _ -> take lx (Top "+") (start + 1)
      | '-', _ -> take lx (Top "-") (start + 1)
      | '*', _ -> take lx (Top "*") (start + 1)
      | '/', _ -> take lx (Top "/") (start + 1)
      | '%', _ -> take lx (Top "%") (start + 1)
      | '<', _ -> take lx (Top "<") (start + 1)
      | '>', _ -> take lx (Top ">") (start + 1)
      | '!', _ -> take lx (Top "!") (start + 1)
      | '~', _ -> take lx (Top "~") (start + 1)
      | '?', _ -> take lx (Top "?") (start + 1)
      | ':', _ -> take lx (Top ":") (start + 1)
      | '(', _ -> take lx Tlparen (start + 1)
      | ')', _ -> take lx Trparen (start + 1)
      | ',', _ -> take lx Tcomma (start + 1)
      | _ -> fail (Printf.sprintf "unexpected character %C in expression" c)

let advance lx = lx.tok <- next_token lx

(* --- numeric coercions ------------------------------------------------- *)

let as_num v =
  match v with
  | Int _ | Float _ -> v
  | Str v -> (
    match Value.to_int v with
    | Some i -> Int i
    | None -> (
      let s = Value.to_string v in
      match Value.float_of s with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "expected number, got %S" s)))

let as_float v =
  match as_num v with Int i -> float_of_int i | Float f -> f | Str _ -> assert false

(* an operand of [%] or [~]: Tcl takes integers only, where [int()]
   truncates *)
let int_operand op v =
  match as_num v with
  | Int i -> i
  | Float _ -> fail (Printf.sprintf "can't use floating-point value as operand of %S" op)
  | Str _ -> assert false

let truthy_num v =
  match v with
  | Int i -> i <> 0
  | Float f -> f <> 0.0
  | Str v -> Value.truthy (Value.to_string v)

let num_to_string = function
  | Int i -> Tacoma_util.Decimal.of_int i
  | Float f -> Value.of_float f
  | Str v -> Value.to_string v

(* numeric binop with int preservation; nested matches keep the hot
   int/int case free of tuple and float boxing *)
let arith fi ff a b =
  match as_num a with
  | Int x -> (
    match as_num b with
    | Int y -> Int (fi x y)
    | Float y -> Float (ff (float_of_int x) y)
    | Str _ -> assert false)
  | Float x -> (
    match as_num b with
    | Int y -> Float (ff x (float_of_int y))
    | Float y -> Float (ff x y)
    | Str _ -> assert false)
  | Str _ -> assert false

(* string operand → numeric representation if it parses, itself otherwise *)
let norm v =
  match v with
  | Int _ | Float _ -> v
  | Str s -> (
    match Value.to_int s with
    | Some i -> Int i
    | None -> (
      match Value.float_of (Value.to_string s) with Some f -> Float f | None -> v))

let compare_vals a b =
  (* numeric comparison when both sides parse as numbers, else string *)
  match norm a with
  | Int x -> (
    match norm b with
    | Int y -> Int.compare x y
    | Float y -> Float.compare (float_of_int x) y
    | Str s -> compare (num_to_string a) (Value.to_string s))
  | Float x -> (
    match norm b with
    | Int y -> Float.compare x (float_of_int y)
    | Float y -> Float.compare x y
    | Str s -> compare (num_to_string a) (Value.to_string s))
  | Str sa -> (
    match norm b with
    | Int _ | Float _ -> compare (Value.to_string sa) (num_to_string b)
    | Str sb -> compare (Value.to_string sa) (Value.to_string sb))

(* --- compiled form ------------------------------------------------------ *)

(* Compilation separates the one-time work (lexing, parsing, constant
   recognition) from the per-evaluation work (variable/command lookup and
   arithmetic).  Variable and command references stay late-bound; a
   command substitution's parsed script is filled into its node on first
   evaluation, so a cached expression pays neither the lexer nor the
   script parser again. *)
(* operators are resolved to opcodes at compile time: evaluation dispatches
   on an immediate tag instead of re-matching the operator string *)
type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Pow
  | Lt
  | Le
  | Gt
  | Ge
  | EqNum
  | NeNum
  | StrEq
  | StrNe
  | InList
  | NiList

type 'script ast =
  | Const of num
  | Var of Value.var_ref (* "$name" or "name(raw index)"; resolved via env.var *)
  | Cmd of 'script cmd (* "[script]"; resolved via eval_cmd *)
  | Not of 'script ast
  | Neg of 'script ast
  | Pos of 'script ast
  | BitNot of 'script ast
  | Bin of binop * 'script ast * 'script ast (* strict arithmetic/comparison operator *)
  | And of 'script ast * 'script ast (* lazy: rhs untouched when lhs is false *)
  | Or of 'script ast * 'script ast (* lazy: rhs untouched when lhs is true *)
  | Ternary of 'script ast * 'script ast * 'script ast (* lazy: only the chosen arm evaluates *)
  | Call of string * 'script ast list
  | Pure of 'script ast
      (* a pure subtree with an operator: tried on unboxed ints first *)

and 'script cmd = { text : string; mutable script : 'script option }

(* --- parser (source -> ast) -------------------------------------------- *)

(* A subtree is pure when it holds only integer constants, scalar [$var]
   reads and the integer operators below: it calls no command and reads
   nothing twice differently, so evaluating it again is safe.  An array
   reference is not pure, since its index may hold a command.  The parser
   wraps each maximal pure subtree that has an operator in [Pure]: each
   parse function leaves in [lx.pure] whether the node it built is pure
   (then still unwrapped, for its parent to decide), and a parent that is
   not pure wraps its children with [wrap]. *)
let int_op = function
  | Add | Sub | Mul | Div | Mod | Pow | Lt | Le | Gt | Ge | EqNum | NeNum -> true
  | StrEq | StrNe | InList | NiList -> false

let wrap node pure = match node with Bin _ when pure -> Pure node | _ -> node

(* [node], built by a parse function that is not pure *)
let impure lx node =
  lx.pure <- false;
  node

let bin lx op a pa b pb =
  if int_op op && pa && pb then begin
    lx.pure <- true;
    Bin (op, a, b)
  end
  else impure lx (Bin (op, wrap a pa, wrap b pb))

let rec parse_primary lx =
  match lx.tok with
  | Tnum ->
    let v = lx.num in
    advance lx;
    lx.pure <- (match v with Int _ -> true | Float _ | Str _ -> false);
    Const v
  | Tstr ->
    let s = lx.text in
    advance lx;
    impure lx (Const (Str (Value.of_string s)))
  | Tvar ->
    let name = lx.text in
    advance lx;
    lx.pure <- not (String.contains name '(');
    Var (Value.var_ref name)
  | Tcmd ->
    let text = lx.text in
    advance lx;
    impure lx (Cmd { text; script = None })
  | Tlparen ->
    advance lx;
    let v = parse_ternary lx in
    (match lx.tok with
    | Trparen -> advance lx
    | _ -> fail "expected )");
    v
  | Top "-" ->
    advance lx;
    let a = parse_unary lx in
    impure lx (Neg (wrap a lx.pure))
  | Top "+" ->
    advance lx;
    let a = parse_unary lx in
    impure lx (Pos (wrap a lx.pure))
  | Top "!" ->
    advance lx;
    let a = parse_unary lx in
    impure lx (Not (wrap a lx.pure))
  | Top "~" ->
    advance lx;
    let a = parse_unary lx in
    impure lx (BitNot (wrap a lx.pure))
  | Tident ->
    let name = lx.text in
    advance lx;
    parse_call lx name
  | Top op -> fail (Printf.sprintf "unexpected operator %s" op)
  | Trparen -> fail "unexpected )"
  | Tcomma -> fail "unexpected ,"
  | Teof -> fail "unexpected end of expression"

and parse_unary lx = parse_primary lx

and parse_call lx name =
  match name with
  (* bare boolean words, with or without call syntax *)
  | "true" | "yes" | "on" ->
    skip_bool_args lx;
    lx.pure <- true;
    Const (Int 1)
  | "false" | "no" | "off" ->
    skip_bool_args lx;
    lx.pure <- true;
    Const (Int 0)
  | _ ->
    let args =
      match lx.tok with
      | Tlparen -> (
        advance lx;
        match lx.tok with
        | Trparen ->
          advance lx;
          []
        | _ -> call_args lx)
      | _ -> []
    in
    (* arity is known at compile time; reject unknown functions here so the
       error surfaces on first evaluation, cached or not *)
    check_known name (List.length args);
    impure lx (Call (name, args))

(* a call's arguments after its [(], through its [)] *)
and call_args lx =
  let v = parse_ternary lx in
  let v = wrap v lx.pure in
  match lx.tok with
  | Tcomma ->
    advance lx;
    v :: call_args lx
  | Trparen ->
    advance lx;
    [ v ]
  | _ -> fail "expected , or ) in function call"

and skip_bool_args lx =
  match lx.tok with
  | Tlparen -> (
    advance lx;
    let rec go () =
      ignore (parse_ternary lx);
      match lx.tok with
      | Tcomma ->
        advance lx;
        go ()
      | Trparen -> advance lx
      | _ -> fail "expected , or ) in function call"
    in
    match lx.tok with Trparen -> advance lx | _ -> go ())
  | _ -> ()

and check_known name arity =
  let ok =
    match (name, arity) with
    | ("abs" | "int" | "round" | "floor" | "ceil" | "double" | "sqrt"), 1 -> true
    | ("exp" | "log" | "log10" | "sin" | "cos" | "tan"), 1 -> true
    | ("pow" | "fmod"), 2 -> true
    | ("min" | "max"), n when n >= 1 -> true
    | _ -> false
  in
  if not ok then fail (Printf.sprintf "unknown function %s/%d" name arity)

and parse_pow lx =
  let base = parse_unary lx in
  match lx.tok with
  | Top "**" ->
    let pb = lx.pure in
    advance lx;
    (* right-associative *)
    let e = parse_pow lx in
    bin lx Pow base pb e lx.pure
  | _ -> base

(* a left-associative level: [next] parses its operands, [op] maps an
   operator of the level to its opcode and anything else to [None] *)
and left lx next op acc =
  match lx.tok with
  | Top s -> (
    match op s with
    | Some o ->
      let pa = lx.pure in
      advance lx;
      let b = next lx in
      left lx next op (bin lx o acc pa b lx.pure)
    | None -> acc)
  | _ -> acc

and parse_mul lx =
  left lx parse_pow (function "*" -> Some Mul | "/" -> Some Div | "%" -> Some Mod | _ -> None)
    (parse_pow lx)

and parse_add lx = left lx parse_mul (function "+" -> Some Add | "-" -> Some Sub | _ -> None) (parse_mul lx)

and parse_cmp lx =
  left lx parse_add
    (function "<" -> Some Lt | "<=" -> Some Le | ">" -> Some Gt | ">=" -> Some Ge | _ -> None)
    (parse_add lx)

and parse_eq lx =
  left lx parse_cmp
    (function
      | "==" -> Some EqNum
      | "!=" -> Some NeNum
      | "eq" -> Some StrEq
      | "ne" -> Some StrNe
      | "in" -> Some InList
      | "ni" -> Some NiList
      | _ -> None)
    (parse_cmp lx)

and parse_and lx =
  let a = parse_eq lx in
  match lx.tok with
  | Top "&&" ->
    let pa = lx.pure in
    advance lx;
    let b = parse_and lx in
    impure lx (And (wrap a pa, wrap b lx.pure))
  | _ -> a

and parse_or lx =
  let a = parse_and lx in
  match lx.tok with
  | Top "||" ->
    let pa = lx.pure in
    advance lx;
    let b = parse_or lx in
    impure lx (Or (wrap a pa, wrap b lx.pure))
  | _ -> a

and parse_ternary lx =
  let cond = parse_or lx in
  match lx.tok with
  | Top "?" ->
    let pc = lx.pure in
    advance lx;
    let then_ = parse_ternary lx in
    let pt = lx.pure in
    (match lx.tok with
    | Top ":" -> advance lx
    | _ -> fail "expected : in ?: expression");
    (* right-associative: the else arm may itself be a ternary *)
    let else_ = parse_ternary lx in
    impure lx (Ternary (wrap cond pc, wrap then_ pt, wrap else_ lx.pure))
  | _ -> cond

let compile src =
  let lx = { src; pos = 0; tok = Teof; num = Int 0; text = ""; pure = false } in
  advance lx;
  let ast = parse_ternary lx in
  (match lx.tok with
  | Teof -> ()
  | _ -> fail "trailing characters in expression");
  wrap ast lx.pure

(* --- evaluator (ast -> num) --------------------------------------------- *)

let list_membership opname want a b =
  let elem = num_to_string a in
  let list = match b with Str v -> v | Int _ | Float _ -> Value.of_string (num_to_string b) in
  match Value.elements list with
  | exception Value.Bad_list msg -> fail (Printf.sprintf "%s: %s" opname msg)
  | l ->
    let mem = Array.exists (fun e -> String.equal (Value.to_string e) elem) l in
    Int (if mem = want then 1 else 0)

(* Tcl floors integer division toward negative infinity, so a remainder
   takes the divisor's sign *)
let floor_div x y = if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1 else x / y

let floor_mod x y =
  let m = x mod y in
  if m <> 0 && (m < 0) <> (y < 0) then m + y else m

let zero_power = "exponentiation of zero by negative power"

(* Tcl 8.6's integer power: exact for a non-negative exponent (past 63 bits
   it wraps, as [*] does), and for a negative one the integer part of the
   exact result: -1 or 1 for a base of -1 or 1, 0 for any other *)
let rec pow_loop acc b e =
  if e = 0 then acc else pow_loop (if e land 1 = 1 then acc * b else acc) (b * b) (e lsr 1)

let int_pow x y =
  if y >= 0 then pow_loop 1 x y
  else if x = 0 then fail zero_power
  else if x = 1 then 1
  else if x = -1 then if y land 1 = 0 then 1 else -1
  else 0

let apply_bin op a b =
  match op with
  | Add -> arith ( + ) ( +. ) a b
  | Sub -> arith ( - ) ( -. ) a b
  | Mul -> arith ( * ) ( *. ) a b
  | Div -> (
    match as_num a with
    | Int x -> (
      match as_num b with
      | Int 0 -> fail "division by zero"
      | Int y -> Int (floor_div x y)
      | Float y -> Float (float_of_int x /. y)
      | Str _ -> assert false)
    | Float x -> (
      match as_num b with
      | Int y -> Float (x /. float_of_int y)
      | Float y -> Float (x /. y)
      | Str _ -> assert false)
    | Str _ -> assert false)
  | Mod ->
    let x = int_operand "%" a in
    let y = int_operand "%" b in
    if y = 0 then fail "modulo by zero";
    Int (floor_mod x y)
  | Pow -> (
    (* the exponent is read first, so of two non-numbers it is the one
       named *)
    let y = as_num b in
    match (as_num a, y) with
    | Int x, Int y -> Int (int_pow x y)
    | x, y ->
      let x = as_float x and y = as_float y in
      if x = 0.0 && y < 0.0 then fail zero_power;
      Float (Float.pow x y))
  | Lt -> Int (if compare_vals a b < 0 then 1 else 0)
  | Le -> Int (if compare_vals a b <= 0 then 1 else 0)
  | Gt -> Int (if compare_vals a b > 0 then 1 else 0)
  | Ge -> Int (if compare_vals a b >= 0 then 1 else 0)
  | EqNum -> Int (if compare_vals a b = 0 then 1 else 0)
  | NeNum -> Int (if compare_vals a b <> 0 then 1 else 0)
  | StrEq -> Int (if String.equal (num_to_string a) (num_to_string b) then 1 else 0)
  | StrNe -> Int (if String.equal (num_to_string a) (num_to_string b) then 0 else 1)
  | InList -> list_membership "in" true a b
  | NiList -> list_membership "ni" false a b

let apply_fn name args =
  match (name, args) with
  | "abs", [ v ] -> (
    match as_num v with
    | Int i -> Int (abs i)
    | Float f -> Float (Float.abs f)
    | Str _ -> assert false)
  | "int", [ v ] -> ( match as_num v with Float f -> Int (int_of_float f) | n -> n)
  | "round", [ v ] -> Int (int_of_float (Float.round (as_float v)))
  | "floor", [ v ] -> Float (Float.floor (as_float v))
  | "ceil", [ v ] -> Float (Float.ceil (as_float v))
  | "double", [ v ] -> Float (as_float v)
  | "sqrt", [ v ] -> Float (sqrt (as_float v))
  | "exp", [ v ] -> Float (exp (as_float v))
  | "log", [ v ] -> Float (log (as_float v))
  | "log10", [ v ] -> Float (log10 (as_float v))
  | "sin", [ v ] -> Float (sin (as_float v))
  | "cos", [ v ] -> Float (cos (as_float v))
  | "tan", [ v ] -> Float (tan (as_float v))
  | "pow", [ a; b ] -> Float (Float.pow (as_float a) (as_float b))
  | "fmod", [ a; b ] -> Float (Float.rem (as_float a) (as_float b))
  | "min", (_ :: _ as vs) ->
    List.fold_left (fun acc v -> if compare_vals v acc < 0 then v else acc) (List.hd vs) vs
  | "max", (_ :: _ as vs) ->
    List.fold_left (fun acc v -> if compare_vals v acc > 0 then v else acc) (List.hd vs) vs
  | _ -> fail (Printf.sprintf "unknown function %s/%d" name (List.length args))

type 'script env = { var : Value.var_ref -> Value.t; cmd : 'script cmd -> Value.t }

(* The unboxed path: a [Pure] subtree evaluated on OCaml ints, left to
   right like [eval_node], allocating nothing.  It gives up with [Slow] (or
   [Value.Not_int] from an operand that is no integer) exactly where
   [eval_node] would take another path: a float or non-numeric operand, or
   a zero divisor or zero base to a negative power, whose error
   [eval_node] raises.  Giving up is safe because a pure subtree only
   reads variables, so [eval_node] reads the same values again. *)
exception Slow

let rec eval_int env node =
  match node with
  | Const (Int i) -> i
  | Var r -> Value.to_int_exn (env.var r)
  | Bin (op, a, b) -> (
    let x = eval_int env a in
    let y = eval_int env b in
    match op with
    | Add -> x + y
    | Sub -> x - y
    | Mul -> x * y
    | Div -> if y = 0 then raise_notrace Slow else floor_div x y
    | Mod -> if y = 0 then raise_notrace Slow else floor_mod x y
    | Pow -> if y < 0 && x = 0 then raise_notrace Slow else int_pow x y
    | Lt -> Bool.to_int (x < y)
    | Le -> Bool.to_int (x <= y)
    | Gt -> Bool.to_int (x > y)
    | Ge -> Bool.to_int (x >= y)
    | EqNum -> Bool.to_int (x = y)
    | NeNum -> Bool.to_int (x <> y)
    | StrEq | StrNe | InList | NiList -> raise_notrace Slow)
  | _ -> raise_notrace Slow

let rec eval_node env node =
  match node with
  | Const v -> v
  | Var r -> Str (env.var r)
  | Cmd c -> Str (env.cmd c)
  | Pure a -> ( match eval_int env a with i -> Int i | exception (Slow | Value.Not_int) -> eval_node env a)
  | Not a -> Int (if truthy_num (eval_node env a) then 0 else 1)
  | Neg a -> (
    match as_num (eval_node env a) with
    | Int i -> Int (-i)
    | Float f -> Float (-.f)
    | Str _ -> assert false)
  | Pos a -> as_num (eval_node env a)
  | BitNot a -> Int (lnot (int_operand "~" (eval_node env a)))
  | Bin (op, a, b) ->
    (* strict, left-to-right *)
    let va = eval_node env a in
    let vb = eval_node env b in
    apply_bin op va vb
  | And (a, b) ->
    if not (truthy_num (eval_node env a)) then Int 0
    else Int (if truthy_num (eval_node env b) then 1 else 0)
  | Or (a, b) ->
    if truthy_num (eval_node env a) then Int 1
    else Int (if truthy_num (eval_node env b) then 1 else 0)
  | Ternary (c, a, b) ->
    if truthy_num (eval_node env c) then eval_node env a else eval_node env b
  | Call (name, args) -> apply_fn name (List.map (eval_node env) args)

let value_of_num = function
  | Int i -> Value.int i
  | Float f -> Value.of_string (Value.of_float f)
  | Str v -> v

(* a pure root is read straight off the unboxed path, with no [num] box *)
let eval_ast env ast =
  match ast with
  | Pure a -> (
    match eval_int env a with
    | i -> Value.int i
    | exception (Slow | Value.Not_int) -> value_of_num (eval_node env a))
  | _ -> value_of_num (eval_node env ast)

let eval_ast_bool env ast =
  match ast with
  | Pure a -> (
    match eval_int env a with
    | i -> i <> 0
    | exception (Slow | Value.Not_int) -> truthy_num (eval_node env a))
  | _ -> truthy_num (eval_node env ast)
