exception Error of string

type num = Int of int | Float of float | Str of Value.t

let fail msg = raise (Error msg)

(* --- lexer ------------------------------------------------------------ *)

type token =
  | Tnum of num
  | Tstr of string
  | Tvar of string
  | Tcmd of string
  | Tident of string (* function name *)
  | Top of string
  | Tlparen
  | Trparen
  | Tcomma
  | Teof

type lexer = { src : string; mutable pos : int; mutable tok : token }

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

let rec next_token lx =
  let n = String.length lx.src in
  while lx.pos < n && (lx.src.[lx.pos] = ' ' || lx.src.[lx.pos] = '\t' || lx.src.[lx.pos] = '\n') do
    lx.pos <- lx.pos + 1
  done;
  if lx.pos >= n then Teof
  else
    let c = lx.src.[lx.pos] in
    if is_digit c || (c = '.' && lx.pos + 1 < n && is_digit lx.src.[lx.pos + 1]) then begin
      let start = lx.pos in
      let seen_dot = ref false and seen_exp = ref false in
      let continue = ref true in
      while !continue && lx.pos < n do
        let d = lx.src.[lx.pos] in
        if is_digit d then lx.pos <- lx.pos + 1
        else if d = '.' && not !seen_dot && not !seen_exp then begin
          seen_dot := true;
          lx.pos <- lx.pos + 1
        end
        else if (d = 'e' || d = 'E') && not !seen_exp && lx.pos + 1 < n
                && (is_digit lx.src.[lx.pos + 1]
                   || ((lx.src.[lx.pos + 1] = '+' || lx.src.[lx.pos + 1] = '-')
                      && lx.pos + 2 < n && is_digit lx.src.[lx.pos + 2])) then begin
          seen_exp := true;
          lx.pos <- lx.pos + (if is_digit lx.src.[lx.pos + 1] then 1 else 2)
        end
        else continue := false
      done;
      let text = String.sub lx.src start (lx.pos - start) in
      if !seen_dot || !seen_exp then Tnum (Float (float_of_string text))
      else
        match int_of_string_opt text with
        | Some i -> Tnum (Int i)
        | None -> Tnum (Float (float_of_string text))
    end
    else if c = '$' then begin
      lx.pos <- lx.pos + 1;
      if lx.pos < n && lx.src.[lx.pos] = '{' then begin
        let start = lx.pos + 1 in
        let close = String.index_from_opt lx.src start '}' in
        match close with
        | None -> fail "unterminated ${ in expression"
        | Some e ->
          lx.pos <- e + 1;
          Tvar (String.sub lx.src start (e - start))
      end
      else begin
        let start = lx.pos in
        while lx.pos < n && is_ident_char lx.src.[lx.pos] do
          lx.pos <- lx.pos + 1
        done;
        if lx.pos = start then fail "bare $ in expression";
        let name = String.sub lx.src start (lx.pos - start) in
        (* array element: pass "name(raw index)" through to the lookup,
           which substitutes the index in the caller's scope *)
        if lx.pos < n && lx.src.[lx.pos] = '(' then begin
          let istart = lx.pos in
          let depth = ref 0 in
          let continue = ref true in
          while !continue && lx.pos < n do
            (match lx.src.[lx.pos] with
            | '(' -> incr depth
            | ')' -> decr depth
            | _ -> ());
            lx.pos <- lx.pos + 1;
            if !depth = 0 then continue := false
          done;
          if !depth > 0 then fail "unterminated array index in expression";
          Tvar (name ^ String.sub lx.src istart (lx.pos - istart))
        end
        else Tvar name
      end
    end
    else if c = '[' then begin
      (* balanced bracket scan; the interpreter evaluates the inside *)
      let start = lx.pos + 1 in
      let depth = ref 1 in
      lx.pos <- lx.pos + 1;
      while lx.pos < n && !depth > 0 do
        (match lx.src.[lx.pos] with
        | '[' -> incr depth
        | ']' -> decr depth
        | _ -> ());
        lx.pos <- lx.pos + 1
      done;
      if !depth > 0 then fail "unterminated [ in expression";
      Tcmd (String.sub lx.src start (lx.pos - 1 - start))
    end
    else if c = '"' || c = '{' then begin
      let close_char = if c = '"' then '"' else '}' in
      let buf = Buffer.create 16 in
      lx.pos <- lx.pos + 1;
      let depth = ref 1 in
      let finished = ref false in
      while lx.pos < n && not !finished do
        let d = lx.src.[lx.pos] in
        if c = '{' && d = '{' then begin
          incr depth;
          Buffer.add_char buf d;
          lx.pos <- lx.pos + 1
        end
        else if d = close_char then begin
          decr depth;
          if !depth = 0 then begin
            finished := true;
            lx.pos <- lx.pos + 1
          end
          else begin
            Buffer.add_char buf d;
            lx.pos <- lx.pos + 1
          end
        end
        else begin
          Buffer.add_char buf d;
          lx.pos <- lx.pos + 1
        end
      done;
      if not !finished then fail "unterminated string in expression";
      Tstr (Buffer.contents buf)
    end
    else if is_ident_char c then begin
      let start = lx.pos in
      while lx.pos < n && is_ident_char lx.src.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      let name = String.sub lx.src start (lx.pos - start) in
      match name with
      | "eq" | "ne" | "in" | "ni" -> Top name
      | _ -> Tident name
    end
    else begin
      let two =
        if lx.pos + 1 < n then Some (String.sub lx.src lx.pos 2) else None
      in
      match two with
      | Some (("==" | "!=" | "<=" | ">=" | "&&" | "||" | "**") as op) ->
        lx.pos <- lx.pos + 2;
        Top op
      | Some _ | None -> (
        match c with
        | '+' | '-' | '*' | '/' | '%' | '<' | '>' | '!' | '~' | '?' | ':' ->
          lx.pos <- lx.pos + 1;
          Top (String.make 1 c)
        | '(' ->
          lx.pos <- lx.pos + 1;
          Tlparen
        | ')' ->
          lx.pos <- lx.pos + 1;
          Trparen
        | ',' ->
          lx.pos <- lx.pos + 1;
          Tcomma
        | _ -> fail (Printf.sprintf "unexpected character %C in expression" c))
    end

and advance lx = lx.tok <- next_token lx

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

let as_int v =
  match as_num v with
  | Int i -> i
  | Float f -> int_of_float f
  | Str _ -> assert false

let truthy_num v =
  match v with
  | Int i -> i <> 0
  | Float f -> f <> 0.0
  | Str v -> Value.truthy (Value.to_string v)

let num_to_string = function
  | Int i -> Value.of_int i
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

let binop_of_string = function
  | "+" -> Add
  | "-" -> Sub
  | "*" -> Mul
  | "/" -> Div
  | "%" -> Mod
  | "**" -> Pow
  | "<" -> Lt
  | "<=" -> Le
  | ">" -> Gt
  | ">=" -> Ge
  | "==" -> EqNum
  | "!=" -> NeNum
  | "eq" -> StrEq
  | "ne" -> StrNe
  | "in" -> InList
  | "ni" -> NiList
  | op -> fail (Printf.sprintf "unknown operator %s" op)

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

and 'script cmd = { text : string; mutable script : 'script option }

(* --- parser (source -> ast) -------------------------------------------- *)

type pctx = { lx : lexer }

let rec parse_primary ctx =
  match ctx.lx.tok with
  | Tnum v ->
    advance ctx.lx;
    Const v
  | Tstr s ->
    advance ctx.lx;
    Const (Str (Value.of_string s))
  | Tvar name ->
    advance ctx.lx;
    Var (Value.var_ref name)
  | Tcmd text ->
    advance ctx.lx;
    Cmd { text; script = None }
  | Tlparen ->
    advance ctx.lx;
    let v = parse_ternary ctx in
    (match ctx.lx.tok with
    | Trparen -> advance ctx.lx
    | _ -> fail "expected )");
    v
  | Top "-" ->
    advance ctx.lx;
    Neg (parse_unary ctx)
  | Top "+" ->
    advance ctx.lx;
    Pos (parse_unary ctx)
  | Top "!" ->
    advance ctx.lx;
    Not (parse_unary ctx)
  | Top "~" ->
    advance ctx.lx;
    BitNot (parse_unary ctx)
  | Tident name ->
    advance ctx.lx;
    parse_call ctx name
  | Top op -> fail (Printf.sprintf "unexpected operator %s" op)
  | Trparen -> fail "unexpected )"
  | Tcomma -> fail "unexpected ,"
  | Teof -> fail "unexpected end of expression"

and parse_unary ctx = parse_primary ctx

and parse_call ctx name =
  match name with
  (* bare boolean words, with or without call syntax *)
  | "true" | "yes" | "on" ->
    skip_bool_args ctx;
    Const (Int 1)
  | "false" | "no" | "off" ->
    skip_bool_args ctx;
    Const (Int 0)
  | _ ->
    let args =
      match ctx.lx.tok with
      | Tlparen ->
        advance ctx.lx;
        if ctx.lx.tok = Trparen then begin
          advance ctx.lx;
          []
        end
        else begin
          let rec go acc =
            let v = parse_ternary ctx in
            match ctx.lx.tok with
            | Tcomma ->
              advance ctx.lx;
              go (v :: acc)
            | Trparen ->
              advance ctx.lx;
              List.rev (v :: acc)
            | _ -> fail "expected , or ) in function call"
          in
          go []
        end
      | _ -> []
    in
    (* arity is known at compile time; reject unknown functions here so the
       error surfaces on first evaluation, cached or not *)
    check_known name (List.length args);
    Call (name, args)

and skip_bool_args ctx =
  match ctx.lx.tok with
  | Tlparen ->
    advance ctx.lx;
    let rec go () =
      let _ = parse_ternary ctx in
      match ctx.lx.tok with
      | Tcomma ->
        advance ctx.lx;
        go ()
      | Trparen -> advance ctx.lx
      | _ -> fail "expected , or ) in function call"
    in
    if ctx.lx.tok = Trparen then advance ctx.lx else go ()
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

and parse_pow ctx =
  let base = parse_unary ctx in
  match ctx.lx.tok with
  | Top "**" ->
    advance ctx.lx;
    (* right-associative *)
    Bin (Pow, base, parse_pow ctx)
  | _ -> base

and parse_mul ctx =
  let rec go acc =
    match ctx.lx.tok with
    | Top (("*" | "/" | "%") as op) ->
      advance ctx.lx;
      go (Bin (binop_of_string op, acc, parse_pow ctx))
    | _ -> acc
  in
  go (parse_pow ctx)

and parse_add ctx =
  let rec go acc =
    match ctx.lx.tok with
    | Top (("+" | "-") as op) ->
      advance ctx.lx;
      go (Bin (binop_of_string op, acc, parse_mul ctx))
    | _ -> acc
  in
  go (parse_mul ctx)

and parse_cmp ctx =
  let rec go acc =
    match ctx.lx.tok with
    | Top (("<" | "<=" | ">" | ">=") as op) ->
      advance ctx.lx;
      go (Bin (binop_of_string op, acc, parse_add ctx))
    | _ -> acc
  in
  go (parse_add ctx)

and parse_eq ctx =
  let rec go acc =
    match ctx.lx.tok with
    | Top (("==" | "!=" | "eq" | "ne" | "in" | "ni") as op) ->
      advance ctx.lx;
      go (Bin (binop_of_string op, acc, parse_cmp ctx))
    | _ -> acc
  in
  go (parse_cmp ctx)

and parse_and ctx =
  let acc = parse_eq ctx in
  match ctx.lx.tok with
  | Top "&&" ->
    advance ctx.lx;
    And (acc, parse_and ctx)
  | _ -> acc

and parse_or ctx =
  let acc = parse_and ctx in
  match ctx.lx.tok with
  | Top "||" ->
    advance ctx.lx;
    Or (acc, parse_or ctx)
  | _ -> acc

and parse_ternary ctx =
  let cond = parse_or ctx in
  match ctx.lx.tok with
  | Top "?" ->
    advance ctx.lx;
    let then_ = parse_ternary ctx in
    (match ctx.lx.tok with
    | Top ":" -> advance ctx.lx
    | _ -> fail "expected : in ?: expression");
    (* right-associative: the else arm may itself be a ternary *)
    Ternary (cond, then_, parse_ternary ctx)
  | _ -> cond

let compile src =
  let lx = { src; pos = 0; tok = Teof } in
  advance lx;
  let ctx = { lx } in
  let ast = parse_ternary ctx in
  (match ctx.lx.tok with
  | Teof -> ()
  | _ -> fail "trailing characters in expression");
  ast

(* --- evaluator (ast -> num) --------------------------------------------- *)

let list_membership opname want a b =
  let elem = num_to_string a in
  let list = match b with Str v -> v | Int _ | Float _ -> Value.of_string (num_to_string b) in
  match Value.elements list with
  | Error msg -> fail (Printf.sprintf "%s: %s" opname msg)
  | Ok l ->
    let mem = Array.exists (fun e -> String.equal (Value.to_string e) elem) l in
    Int (if mem = want then 1 else 0)

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
      | Int y ->
        (* Tcl floors integer division toward negative infinity *)
        let q = if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1 else x / y in
        Int q
      | Float y -> Float (float_of_int x /. y)
      | Str _ -> assert false)
    | Float x -> (
      match as_num b with
      | Int y -> Float (x /. float_of_int y)
      | Float y -> Float (x /. y)
      | Str _ -> assert false)
    | Str _ -> assert false)
  | Mod ->
    let x = as_int a and y = as_int b in
    if y = 0 then fail "modulo by zero";
    let m = x mod y in
    let m = if m <> 0 && (m < 0) <> (y < 0) then m + y else m in
    Int m
  | Pow -> Float (Float.pow (as_float a) (as_float b))
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
  | "int", [ v ] -> Int (as_int v)
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

let rec eval_node env node =
  match node with
  | Const v -> v
  | Var r -> Str (env.var r)
  | Cmd c -> Str (env.cmd c)
  | Not a -> Int (if truthy_num (eval_node env a) then 0 else 1)
  | Neg a -> (
    match as_num (eval_node env a) with
    | Int i -> Int (-i)
    | Float f -> Float (-.f)
    | Str _ -> assert false)
  | Pos a -> as_num (eval_node env a)
  | BitNot a -> Int (lnot (as_int (eval_node env a)))
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

let eval_ast env ast =
  match eval_node env ast with
  | Int i -> Value.int i
  | Float f -> Value.of_string (Value.of_float f)
  | Str v -> v

let eval_ast_bool env ast = truthy_num (eval_node env ast)
