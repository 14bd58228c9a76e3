exception Error_exc of string
exception Return_exc of Value.t
exception Break_exc
exception Continue_exc
exception Resource_exhausted

module Lru = Tacoma_util.Lru

(* A command takes and returns interpreter values, and receives the node it
   was invoked from, so builtins that take a script or expression argument
   can use the compile slots of its literal braced words.  Host commands
   ({!register}) see strings and ignore the node.  The record only breaks
   the type cycle through [Ast]; [@@unboxed] makes it free. *)
type command_fn = { run : t -> node -> Value.t list -> Value.t } [@@unboxed]

(* AST nodes instantiated with this interpreter's command type, so inline
   command caches hold the resolved functions directly *)
and node = command_fn Ast.command
and script = command_fn Ast.script

(* The parse cache: parsed scripts keyed by source string, LRU-bounded.
   Parsed ASTs carry per-node inline caches and compile slots, but the
   inline caches validate against the evaluating interpreter, so a cache
   may be private to one interpreter (the default) or shared by every
   interpreter a site creates — the kernel shares one per simulation,
   which is what lets the second activation of an agent skip the parser
   entirely. *)
and caches = {
  parsed : (string, script) Lru.t;
  mutable next_uid : int;
      (* uid fountain for the interpreters sharing this cache; lives here
         (not in a global) so concurrent simulations — each with its own
         caches — stay deterministic and race-free *)
}

and t = {
  uid : int; (* distinguishes interpreters sharing cached ASTs *)
  commands : (string, command_fn) Hashtbl.t;
  mutable cmd_epoch : int;
      (* bumped by register/unregister so stale inline caches are refused *)
  proc_bodies : (string, string * string) Hashtbl.t; (* name -> params, body (introspection) *)
  global : frame; (* its stamp is [uid] *)
  mutable frames : frame list; (* innermost first; [] means global scope *)
  mutable steps : int;
  mutable limit : int option;
  mutable depth : int;
  max_depth : int;
  mutable prof_commands : int;
  mutable prof_proc_calls : int;
  mutable prof_max_depth : int;
  mutable prof_parse_hits : int;
  mutable prof_parse_misses : int;
  mutable prof_parse_evictions : int;
  mutable prof_expr_hits : int;
  mutable prof_expr_misses : int;
  caches : caches;
  (* the expression callbacks close only over [t]; allocated once here
     instead of once per expression evaluation *)
  mutable expr_env : script Expr.env;
  out_buf : Buffer.t;
  mutable output : string -> unit;
}

(* A scope maps names to cells ({!Value.cell}).  A proc frame holds its
   parameters' cells in an array, in parameter order, and any other name
   in [locals], made on the first write; the global scope is [locals]
   alone.  [global] and [upvar] enter another scope's cell under a local
   name, as Tcl's link variables do, and give the frame a fresh [stamp], so
   a reference cached under the old stamp resolves its name again. *)
and frame = {
  params : string array; (* the proc's parameter names, shared by its calls *)
  cells : Value.cell array;
  mutable locals : (string, Value.cell) Hashtbl.t option;
  mutable stamp : int;
  id : int; (* the [home] of the cells this frame makes *)
}

let err fmt = Printf.ksprintf (fun msg -> raise (Error_exc msg)) fmt

(* a malformed list reaching a list command is a script error, as in Tcl *)
let list_of v = match Value.elements v with Ok l -> l | Error msg -> raise (Error_exc msg)
let string_list s = match Value.to_list s with Ok l -> l | Error msg -> raise (Error_exc msg)

let cache_entries = 512
let create_caches () = { parsed = Lru.create ~budget:cache_entries (); next_uid = 0 }

(* interpreter uids and scope stamps come from one fountain, so no two
   scopes of interpreters sharing ASTs ever have the same stamp *)
let fresh_uid caches =
  caches.next_uid <- caches.next_uid + 1;
  caches.next_uid

(* ---- variables -------------------------------------------------------- *)

let scope t = match t.frames with f :: _ -> f | [] -> t.global

let frame params cells locals id = { params; cells; locals; stamp = id; id }

(* [name]'s index among [f]'s parameters, or -1.  A name given twice finds
   its first index, the parameter Tcl binds. *)
let rec param_index f name i =
  if i = Array.length f.params then -1
  else if String.equal (Array.unsafe_get f.params i) name then i
  else param_index f name (i + 1)

(* [name]'s cell in [f], or [Value.nowhere] *)
let lookup f name =
  let i = param_index f name 0 in
  if i >= 0 then Array.unsafe_get f.cells i
  else
    match f.locals with
    | Some h -> ( try Hashtbl.find h name with Not_found -> Value.nowhere)
    | None -> Value.nowhere

let locals f =
  match f.locals with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 8 in
    f.locals <- Some h;
    h

(* [name]'s cell in [f], made absent when it has none *)
let cell_rw f name =
  let c = lookup f name in
  if c != Value.nowhere then c
  else begin
    let c = Value.cell f.id Value.absent in
    Hashtbl.replace (locals f) name c;
    c
  end

(* A reference's cell in the current scope: the cached one while the scope
   has the stamp it was cached under.  A read makes the cell too, absent,
   so a scope holds at most one cell per literal name it mentions. *)
let ref_cell t (r : Value.var_ref) =
  let f = scope t in
  if r.stamp = f.stamp then r.cell
  else begin
    let c = cell_rw f r.name in
    r.stamp <- f.stamp;
    r.cell <- c;
    c
  end

let defined (c : Value.cell) = c.v != Value.absent || Option.is_some c.elems

let read name (c : Value.cell) =
  if c.v != Value.absent then c.v
  else if Option.is_some c.elems then err "can't read \"%s\": variable is array" name
  else err "can't read \"%s\": no such variable" name

let write name (c : Value.cell) v =
  match c.elems with
  | None -> c.v <- v
  | Some _ -> err "can't set \"%s\": variable is array" name

let get_var t name = read name (lookup (scope t) name)
let set_var t name v = write name (cell_rw (scope t) name) v

(* the cell stays: a reference that cached it stays valid *)
let unset_var t ~complain name =
  let c = lookup (scope t) name in
  if defined c then begin
    c.v <- Value.absent;
    c.elems <- None
  end
  else if complain then err "can't unset \"%s\": no such variable" name

(* ---- array elements ----------------------------------------------------- *)

let elem_error verb name index (c : Value.cell) =
  err "can't %s \"%s(%s)\": %s" verb name index
    (if Option.is_some c.elems then "no such element in array"
     else if c.v != Value.absent then "variable isn't array"
     else "no such variable")

let get_elem t name index =
  let c = lookup (scope t) name in
  match c.elems with
  | Some h -> ( try Hashtbl.find h index with Not_found -> elem_error "read" name index c)
  | None -> elem_error "read" name index c

let set_elem t name index v =
  let c = cell_rw (scope t) name in
  match c.elems with
  | Some h -> Hashtbl.replace h index v
  | None ->
    if c.v != Value.absent then elem_error "set" name index c;
    let h = Hashtbl.create 8 in
    Hashtbl.replace h index v;
    c.elems <- Some h

let unset_elem t ~complain name index =
  let c = lookup (scope t) name in
  match c.elems with
  | Some h when Hashtbl.mem h index -> Hashtbl.remove h index
  | _ -> if complain then elem_error "unset" name index c

(* "name(index)" in a fully-substituted word (set a($i) v arrives here as
   "a(5)"); the index may contain anything except a leading '(' split *)
let split_array_ref s =
  let n = String.length s in
  if n >= 3 && s.[n - 1] = ')' then
    match String.index_opt s '(' with
    | Some i when i > 0 && i < n - 1 -> Some (String.sub s 0 i, String.sub s (i + 1) (n - i - 2))
    | Some i when i > 0 -> Some (String.sub s 0 i, "")
    | _ -> None
  else None

(* generic reference access for commands like set/incr/append/lappend;
   [scalar_of] is [Value.absent] for a missing variable or element and for
   an array, whose write then fails *)
let scalar_of t name =
  match split_array_ref name with
  | Some (a, i) -> (
    match (lookup (scope t) a).elems with
    | Some h -> ( try Hashtbl.find h i with Not_found -> Value.absent)
    | None -> Value.absent)
  | None -> (lookup (scope t) name).v

let get_ref t name =
  match split_array_ref name with
  | Some (a, i) -> get_elem t a i
  | None -> get_var t name

let set_ref t name v =
  match split_array_ref name with
  | Some (a, i) -> set_elem t a i v
  | None -> set_var t name v

let unset_ref t ~complain name =
  match split_array_ref name with
  | Some (a, i) -> unset_elem t ~complain a i
  | None -> unset_var t ~complain name

(* The reference for a command's literal first argument ([set x ...]),
   kept on the command node; [no_ref] when that word is not literal or
   names an array element, which take the lookup by name. *)
let no_ref = Value.var_ref ""

let arg_ref (node : node) name =
  let s = Value.to_string name in
  match node.c_vars with
  | [| r |] when r.name == s -> r
  | _ -> (
    match node.words with
    | _ :: (Ast.Literal w | Ast.Braced { value = w; _ }) :: _
      when w == name && split_array_ref s = None ->
      let r = Value.var_ref s in
      node.c_vars <- [| r |];
      r
    | _ -> no_ref)

(* [incr], [append] and [lappend]: [f x] maps the variable's scalar
   ([Value.absent] when it has none, or is an array) to the value stored
   and returned *)
let update t node name f x =
  let r = arg_ref node name in
  if r != no_ref then begin
    let c = ref_cell t r in
    let v = f x c.v in
    write r.name c v;
    v
  end
  else
    let name = Value.to_string name in
    let v = f x (scalar_of t name) in
    set_ref t name v;
    v

(* ---- metering ---------------------------------------------------------- *)

let charge t n =
  t.steps <- t.steps + n;
  match t.limit with
  | Some l when t.steps > l -> raise Resource_exhausted
  | Some _ | None -> ()

let steps_used t = t.steps
let set_step_limit t l = t.limit <- l
let step_limit t = t.limit
let reset_steps t = t.steps <- 0

(* ---- parsing and expression compilation, cached ------------------------ *)

let parse t src =
  match Lru.find_opt t.caches.parsed src with
  | Some ast ->
    t.prof_parse_hits <- t.prof_parse_hits + 1;
    ast
  | None -> (
    t.prof_parse_misses <- t.prof_parse_misses + 1;
    match Parse.script_result src with
    | Error msg -> err "syntax error: %s" msg
    | Ok ast ->
      let e0 = Lru.evictions t.caches.parsed in
      ignore (Lru.add t.caches.parsed src ast);
      t.prof_parse_evictions <- t.prof_parse_evictions + (Lru.evictions t.caches.parsed - e0);
      ast)

(* Expressions have no source-keyed cache: a literal one lives in its
   word's slot, and one built at run time is compiled on every evaluation.
   A failed compile is never stored, so the error re-raises each time. *)
let compile_expr t src =
  t.prof_expr_misses <- t.prof_expr_misses + 1;
  try Expr.compile src with Expr.Error msg -> err "expr: %s" msg

(* Script and expression arguments of builtins.  [ws] is the argument's
   word followed by the words after it, as a builtin walks its node ([[]]
   when it has none).  A literal braced word serves its compile slot,
   filled on first use (a script from the LRU); any other text (a body
   built at run time) goes to the LRU or the expression compiler every
   time.  A slot reuse counts as a hit, so the parse counters read the
   same as if every evaluation had asked the LRU.  The physical-equality
   test makes a word that is not the argument harmless. *)
let script_of t ws src =
  match ws with
  | Ast.Braced ({ value; _ } as b) :: _ when value == src -> (
    match b.script with
    | Some ast ->
      t.prof_parse_hits <- t.prof_parse_hits + 1;
      ast
    | None ->
      let ast = parse t (Value.to_string src) in
      b.script <- Some ast;
      ast)
  | _ -> parse t (Value.to_string src)

let expr_of t ws src =
  match ws with
  | Ast.Braced ({ value; _ } as b) :: _ when value == src -> (
    match b.expr with
    | Some ast ->
      t.prof_expr_hits <- t.prof_expr_hits + 1;
      ast
    | None ->
      let ast = compile_expr t (Value.to_string src) in
      b.expr <- Some ast;
      ast)
  | _ -> compile_expr t (Value.to_string src)

(* the words of a node's arguments, and the words after an argument *)
let arg_words (node : node) = match node.words with [] -> [] | _ :: ws -> ws
let next_words = function [] -> [] | _ :: ws -> ws

(* ---- evaluation -------------------------------------------------------- *)

(* a word of one fragment is that fragment's value itself, so [$x] passes
   on the variable's value with whatever forms it has cached *)
let rec eval_word t word =
  match word with
  | Ast.Braced b -> b.value
  | Ast.Literal v -> v
  | Ast.Frags [ frag ] -> eval_fragment t frag
  | Ast.Frags frags -> Value.of_string (concat_fragments t frags)

and concat_fragments t frags = String.concat "" (List.map (fragment_string t) frags)

and fragment_string t frag =
  match frag with Ast.Lit s -> s | _ -> Value.to_string (eval_fragment t frag)

and eval_fragment t frag =
  match frag with
  | Ast.Lit s -> Value.of_string s
  | Ast.Var r -> read r.name (ref_cell t r)
  | Ast.VarElem (name, [ frag ]) -> get_elem t name (fragment_string t frag)
  | Ast.VarElem (name, index_frags) -> get_elem t name (concat_fragments t index_frags)
  | Ast.Cmd script -> eval_ast t script

and eval_command t cmd =
  match cmd.Ast.words with
  | [] -> Value.empty
  | name_word :: arg_words -> (
    charge t 1;
    t.prof_commands <- t.prof_commands + 1;
    (* inline command cache: when this interpreter resolved this node
       before and no command has been (un)registered since, skip the name
       substitution and the table lookup *)
    match cmd.Ast.c_fn with
    | Some fn when cmd.Ast.c_id = t.uid && cmd.Ast.c_epoch = t.cmd_epoch ->
      fn.run t cmd (eval_args t arg_words)
    | _ -> (
      let name = Value.to_string (eval_word t name_word) in
      let args = eval_args t arg_words in
      match Hashtbl.find_opt t.commands name with
      | Some fn ->
        (* only a literal name resolves to the same command every time *)
        (match name_word with
        | Ast.Braced _ | Ast.Literal _ ->
          cmd.Ast.c_fn <- Some fn;
          cmd.Ast.c_id <- t.uid;
          cmd.Ast.c_epoch <- t.cmd_epoch
        | _ -> ());
        fn.run t cmd args
      | None -> err "invalid command name %S" name))

(* left-to-right argument evaluation, arity-specialised so the common 1-3
   argument commands build their list without a [List.map] closure *)
and eval_args t arg_words =
  match arg_words with
  | [] -> []
  | [ a ] -> [ eval_word t a ]
  | [ a; b ] ->
    let va = eval_word t a in
    let vb = eval_word t b in
    [ va; vb ]
  | [ a; b; c ] ->
    let va = eval_word t a in
    let vb = eval_word t b in
    let vc = eval_word t c in
    [ va; vb; vc ]
  | a :: rest ->
    let va = eval_word t a in
    va :: eval_args t rest

and eval_ast t script =
  match script with
  | [] -> Value.empty
  | [ cmd ] -> eval_command t cmd
  | cmd :: rest ->
    ignore (eval_command t cmd);
    eval_ast t rest

and eval_string t src = eval_ast t (parse t src)

(* a command substitution inside an expression: its slot, like a braced
   word's, is filled from the LRU on first evaluation (so a syntax error
   still surfaces then) and counts as a parse hit afterwards *)
and expr_cmd t (c : script Expr.cmd) =
  match c.script with
  | Some ast ->
    t.prof_parse_hits <- t.prof_parse_hits + 1;
    eval_ast t ast
  | None ->
    let ast = parse t c.text in
    c.script <- Some ast;
    eval_ast t ast

(* expr needs variable and command substitution from the current scope.
   Expressions are charged one step each: loop conditions must consume
   budget even when the loop body is empty, or a run-away agent could spin
   for free. *)
and subst_string t s =
  match Parse.fragments s with
  | frags -> concat_fragments t frags
  | exception Parse.Syntax_error msg -> err "substitution: %s" msg

(* expr hands an array reference over as "name(raw index)", whose index
   still needs a round of substitution ($a($i)); only a scalar is cached *)
and expr_var t (r : Value.var_ref) =
  match split_array_ref r.name with
  | Some (name, raw_index) -> get_elem t name (subst_string t raw_index)
  | None -> read r.name (ref_cell t r)

(* the callers charge the expression's step *)
and expr_value t ast =
  try Expr.eval_ast t.expr_env ast with Expr.Error msg -> err "expr: %s" msg

and expr_bool t ast =
  try Expr.eval_ast_bool t.expr_env ast with Expr.Error msg -> err "expr: %s" msg

let eval t src =
  match eval_string t src with
  | v -> Ok (Value.to_string v)
  | exception Error_exc msg -> Error msg
  | exception Return_exc v -> Ok (Value.to_string v)
  | exception Break_exc -> Error "invoked \"break\" outside of a loop"
  | exception Continue_exc -> Error "invoked \"continue\" outside of a loop"

let eval_exn t src =
  match eval t src with Ok v -> v | Error msg -> raise (Error_exc msg)

(* ---- host command API --------------------------------------------------- *)

(* a host call has no command node: its arguments are all run-time text *)
let call t name args =
  match Hashtbl.find_opt t.commands name with
  | Some fn -> Value.to_string (fn.run t (Ast.command []) (List.map Value.of_string args))
  | None -> err "invalid command name %S" name

let add_command t name fn =
  t.cmd_epoch <- t.cmd_epoch + 1;
  Hashtbl.replace t.commands name fn

(* The one adapter from a string command to a command on values: host
   commands, and the builtins with no hot path *)
let string_command fn =
  { run = (fun t _ args -> Value.of_string (fn t (List.map Value.to_string args))) }

let register t name fn = add_command t name (string_command fn)

let unregister t name =
  t.cmd_epoch <- t.cmd_epoch + 1;
  Hashtbl.remove t.commands name;
  Hashtbl.remove t.proc_bodies name

let has_command t name = Hashtbl.mem t.commands name
let command_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.commands []

let set_output t fn = t.output <- fn

let take_output t =
  let s = Buffer.contents t.out_buf in
  Buffer.clear t.out_buf;
  s

(* ---- procs -------------------------------------------------------------- *)

type param = Required of string | Optional of string * Value.t | Rest

(* a literal parameter list keeps its list form on the shared AST, so a
   proc definition re-run on every activation does not re-read it *)
let parse_params spec =
  let items = list_of spec in
  let n = Array.length items in
  List.init n (fun i ->
      let item = items.(i) in
      if i = n - 1 && Value.to_string item = "args" then Rest
      else
        match list_of item with
        | [| name |] -> Required (Value.to_string name)
        | [| name; default |] -> Optional (Value.to_string name, default)
        | _ -> err "bad parameter specifier %S" (Value.to_string item))

let usage_of_params name params =
  let render = function
    | Required n -> n
    | Optional (n, _) -> "?" ^ n ^ "?"
    | Rest -> "?arg ...?"
  in
  String.concat " " (name :: List.map render params)

let param_name = function Required n | Optional (n, _) -> n | Rest -> "args"

(* false on an arity mismatch; top-level so a call allocates no closure *)
let rec bind_args cells home i params args =
  match (params, args) with
  | [], [] -> true
  | [], _ :: _ -> false
  | [ Rest ], rest ->
    cells.(i) <- Value.cell home (Value.of_elements (Array.of_list rest));
    true
  | Rest :: _, _ -> err "args must be the last parameter"
  | Required _ :: ps, a :: rest ->
    cells.(i) <- Value.cell home a;
    bind_args cells home (i + 1) ps rest
  | Required _ :: _, [] -> false
  | Optional (_, d) :: ps, [] ->
    cells.(i) <- Value.cell home d;
    bind_args cells home (i + 1) ps []
  | Optional _ :: ps, a :: rest ->
    cells.(i) <- Value.cell home a;
    bind_args cells home (i + 1) ps rest

(* a call's frame: one cell per parameter, no table *)
let bind_params t name names params args =
  let id = fresh_uid t.caches in
  let cells = Array.make (Array.length names) Value.nowhere in
  if not (bind_args cells id 0 params args) then
    err "wrong # args: should be %S" (usage_of_params name params);
  frame names cells None id

let pop_frame t =
  t.frames <- List.tl t.frames;
  t.depth <- t.depth - 1

(* [body_words] starts at the body's word: a literal body keeps its slot in
   the closure, so each call reuses the parse instead of looking it up *)
let define_proc t name param_spec body body_words =
  let params = parse_params param_spec in
  let names = Array.of_list (List.map param_name params) in
  Hashtbl.replace t.proc_bodies name (Value.to_string param_spec, Value.to_string body);
  let run t _ args =
    if t.depth >= t.max_depth then err "too many nested proc calls (max %d)" t.max_depth;
    let frame = bind_params t name names params args in
    t.frames <- frame :: t.frames;
    t.depth <- t.depth + 1;
    t.prof_proc_calls <- t.prof_proc_calls + 1;
    if t.depth > t.prof_max_depth then t.prof_max_depth <- t.depth;
    match eval_ast t (script_of t body_words body) with
    | v ->
      pop_frame t;
      v
    | exception Return_exc v ->
      pop_frame t;
      v
    | exception e ->
      pop_frame t;
      raise e
  in
  add_command t name { run }

(* Link [name] in [f] to [target]'s cell for [other] (made absent when
   missing), as [global] and [upvar] do.  Relinking to the same cell does
   nothing; a name [f] already holds a value in, other than by a link, is
   an error, as in Tcl.  Any other change re-stamps [f]. *)
let link t f name target other =
  let c = cell_rw target other in
  let old = lookup f name in
  if old != c then begin
    if old.home = f.id && defined old then err "variable \"%s\" already exists" name;
    let i = param_index f name 0 in
    if i >= 0 then f.cells.(i) <- c else Hashtbl.replace (locals f) name c;
    f.stamp <- fresh_uid t.caches
  end

(* ---- builtin commands ---------------------------------------------------- *)

(* [foreach]/[lmap]: varList list ?varList list ...? body.  Each pass gives
   every variable list its next items ("" once its list runs out) and runs
   [each] on the body; the loop ends when every list is used up.  The body
   is looked up once per pass.  The loop variables' references live on the
   command node, in order, so a pass assigns them without a lookup. *)
let iterate t ~cmd node args each =
  let usage () =
    err "wrong # args: should be \"%s varList list ?varList list ...? command\"" cmd
  in
  let nargs = List.length args in
  if nargs < 3 || nargs mod 2 = 0 then usage ();
  let rec groups ws args =
    match args with
    | [ body ] -> ([], ws, body)
    | vars :: items :: rest ->
      let vars = Array.map Value.to_string (list_of vars) in
      if Array.length vars = 0 then err "%s: empty variable list" cmd;
      let items = list_of items in
      let rest, body_ws, body = groups (next_words (next_words ws)) rest in
      ((vars, items) :: rest, body_ws, body)
    | [] -> usage ()
  in
  let groups, body_ws, body = groups (arg_words node) args in
  let names = Array.concat (List.map fst groups) in
  let refs = node.Ast.c_vars in
  if
    not
      (Array.length refs = Array.length names
      && Array.for_all2 (fun r n -> r.Value.name == n) refs names)
  then node.Ast.c_vars <- Array.map Value.var_ref names;
  let refs = node.Ast.c_vars and groups = Array.of_list groups in
  (* pass [p] gives a group of [n] variables items [p*n] to [p*n + n - 1] *)
  let pass = ref 0 in
  let pending (vars, items) = !pass * Array.length vars < Array.length items in
  let bind_pass () =
    let k = ref 0 in
    Array.iter
      (fun (vars, items) ->
        let first = !pass * Array.length vars in
        for j = 0 to Array.length vars - 1 do
          let (r : Value.var_ref) = refs.(!k) in
          let v = if first + j < Array.length items then items.(first + j) else Value.empty in
          if split_array_ref r.name = None then write r.name (ref_cell t r) v
          else set_ref t r.name v;
          incr k
        done)
      groups
  in
  try
    while Array.exists pending groups do
      bind_pass ();
      incr pass;
      try each (script_of t body_ws body) with Continue_exc -> ()
    done
  with Break_exc -> ()

let int_arg what s =
  match Value.int_of s with Some i -> i | None -> err "expected integer for %s, got %S" what s

let int_value what v =
  match Value.to_int v with
  | Some i -> i
  | None -> err "expected integer for %s, got %S" what (Value.to_string v)

(* Tcl index syntax: N, end, end-N *)
let index_arg ~len s =
  let s = String.trim s in
  if s = "end" then len - 1
  else if String.length s > 4 && String.sub s 0 4 = "end-" then
    len - 1 - int_arg "index" (String.sub s 4 (String.length s - 4))
  else int_arg "index" s

let index_value ~len v =
  match Value.to_int v with Some i -> i | None -> index_arg ~len (Value.to_string v)

(* Tcl's concat joins its arguments as text, nothing re-quoted: each is
   trimmed of surrounding white space (keeping one a trailing backslash
   escapes) and the non-empty ones are joined by single spaces *)
let concat args =
  let is_space c = String.contains " \t\n\r\x0b\x0c" c in
  let trim s =
    let n = String.length s and i = ref 0 in
    while !i < n && is_space s.[!i] do
      incr i
    done;
    let j = ref n in
    while !j > !i && is_space s.[!j - 1] do
      decr j
    done;
    if !j < n && !j > !i && s.[!j - 1] = '\\' then incr j;
    String.sub s !i (!j - !i)
  in
  String.concat " " (List.filter (fun s -> s <> "") (List.map trim args))

(* the updates of [incr], [append] and [lappend], given the variable's
   scalar or [Value.absent]: a new value, never an update in place, since
   the old one may be shared *)
let incr_by delta cur =
  Value.int ((if cur == Value.absent then 0 else int_value "variable value" cur) + delta)

let append parts cur =
  let cur = if cur == Value.absent then "" else Value.to_string cur in
  Value.of_string (String.concat "" (cur :: List.map Value.to_string parts))

let lappend items cur =
  let cur = if cur == Value.absent then [||] else list_of cur in
  Value.of_elements (Array.append cur (Array.of_list items))

let is_word word v = String.equal (Value.to_string v) word

(* [if cond ?then? body ?elseif cond ?then? body ...? ?else? ?body?];
   [ws] walks the argument words alongside [args] *)
let rec if_clauses t ws args =
  match args with
  | cond :: rest -> (
    let body_ws = next_words ws in
    let body_ws, rest =
      match rest with
      | w :: r when is_word "then" w -> (next_words body_ws, r)
      | r -> (body_ws, r)
    in
    match rest with
    | body :: rest ->
      charge t 1;
      if expr_bool t (expr_of t ws cond) then eval_ast t (script_of t body_ws body)
      else else_clauses t (next_words body_ws) rest
    | [] -> err "wrong # args: no script following condition")
  | [] -> err "wrong # args: should be \"if cond ?then? body ...\""

and else_clauses t ws rest =
  match rest with
  | [] -> Value.empty
  | [ w; body ] when is_word "else" w -> eval_ast t (script_of t (next_words ws) body)
  | [ body ] -> eval_ast t (script_of t ws body)
  | w :: rest when is_word "elseif" w -> if_clauses t (next_words ws) rest
  | _ -> err "expected \"elseif\" or \"else\" clause"

let install_core t0 =
  let reg name run = add_command t0 name { run } in
  let reg_string name fn = register t0 name fn in

  reg "set" (fun t node args ->
      match args with
      | [ name ] ->
        let r = arg_ref node name in
        if r != no_ref then read r.name (ref_cell t r) else get_ref t (Value.to_string name)
      | [ name; v ] ->
        let r = arg_ref node name in
        if r != no_ref then write r.name (ref_cell t r) v
        else set_ref t (Value.to_string name) v;
        v
      | _ -> err "wrong # args: should be \"set varName ?newValue?\"");

  (* unset ?-nocomplain? ?--? ?name ...?, as Tcl 8.6 reads its options *)
  reg_string "unset" (fun t args ->
      let complain, names =
        match args with "-nocomplain" :: rest -> (false, rest) | names -> (true, names)
      in
      let names = match names with "--" :: rest -> rest | names -> names in
      List.iter (unset_ref t ~complain) names;
      "");

  reg "incr" (fun t node args ->
      match args with
      | [ name ] | [ name; _ ] ->
        (* an element of a scalar is a read error, as in Tcl *)
        (match split_array_ref (Value.to_string name) with
        | Some (a, i) when (lookup (scope t) a).v != Value.absent -> ignore (get_elem t a i)
        | _ -> ());
        let delta = match args with [ _; d ] -> int_value "increment" d | _ -> 1 in
        update t node name incr_by delta
      | _ -> err "wrong # args: should be \"incr varName ?increment?\"");

  (* outside a proc, [global] does nothing *)
  reg_string "global" (fun t args ->
      (match t.frames with
      | [] -> ()
      | frame :: _ -> List.iter (fun n -> link t frame n t.global n) args);
      "");

  reg_string "upvar" (fun t args ->
      (* upvar ?level? otherVar myVar ?otherVar myVar ...? *)
      let parse_level s =
        if s = "#0" then Some `Global
        else match int_of_string_opt s with Some n when n >= 0 -> Some (`Up n) | _ -> None
      in
      let level, pairs =
        match args with
        | lvl :: rest when parse_level lvl <> None && List.length rest mod 2 = 0 && rest <> [] ->
          (Option.get (parse_level lvl), rest)
        | _ -> (`Up 1, args)
      in
      if pairs = [] || List.length pairs mod 2 <> 0 then
        err "wrong # args: should be \"upvar ?level? otherVar localVar ?...?\"";
      (* [n] frames up from the current one; past the outermost proc, the
         global scope *)
      let rec up frames n =
        match frames with f :: rest -> if n = 0 then f else up rest (n - 1) | [] -> t.global
      in
      let target = match level with `Global -> t.global | `Up n -> up t.frames n in
      let frame = scope t in
      let rec link_pairs = function
        | other :: local :: rest ->
          link t frame local target other;
          link_pairs rest
        | [] -> ()
        | [ _ ] -> err "upvar: unbalanced variable pairs"
      in
      link_pairs pairs;
      "");

  reg "uplevel" (fun t _ args ->
      let args = List.map Value.to_string args in
      let parse_level s =
        if s = "#0" then Some `Global
        else match int_of_string_opt s with Some n when n >= 1 -> Some (`Up n) | _ -> None
      in
      let level, script_parts =
        match args with
        | lvl :: (_ :: _ as rest) when parse_level lvl <> None ->
          (Option.get (parse_level lvl), rest)
        | _ -> (`Up 1, args)
      in
      if script_parts = [] then err "wrong # args: should be \"uplevel ?level? script\"";
      let saved = t.frames in
      (match level with
      | `Global -> t.frames <- []
      | `Up n ->
        let rec drop frames n =
          if n = 0 then frames else match frames with [] -> [] | _ :: rest -> drop rest (n - 1)
        in
        t.frames <- drop t.frames n);
      let restore () = t.frames <- saved in
      (match eval_string t (String.concat " " script_parts) with
      | v ->
        restore ();
        v
      | exception e ->
        restore ();
        raise e));

  reg "proc" (fun t node args ->
      match args with
      | [ name; params; body ] ->
        define_proc t (Value.to_string name) params body
          (next_words (next_words (arg_words node)));
        Value.empty
      | _ -> err "wrong # args: should be \"proc name args body\"");

  reg "return" (fun _ _ args ->
      match args with
      | [] -> raise (Return_exc Value.empty)
      | [ v ] -> raise (Return_exc v)
      | _ -> err "wrong # args: should be \"return ?value?\"");

  reg "break" (fun _ _ _ -> raise Break_exc);
  reg "continue" (fun _ _ _ -> raise Continue_exc);

  reg "error" (fun _ _ args ->
      match args with
      | [ msg ] -> raise (Error_exc (Value.to_string msg))
      | _ -> err "wrong # args: should be \"error message\"");

  reg "catch" (fun t node args ->
      match args with
      | [ script ] | [ script; _ ] -> (
        let set_result v =
          match args with [ _; var ] -> set_ref t (Value.to_string var) v | _ -> ()
        in
        match eval_ast t (script_of t (arg_words node) script) with
        | v ->
          set_result v;
          Value.int 0
        | exception Error_exc msg ->
          set_result (Value.of_string msg);
          Value.int 1
        | exception Return_exc v ->
          set_result v;
          Value.int 2)
      | _ -> err "wrong # args: should be \"catch script ?resultVarName?\"");

  reg "eval" (fun t _ args ->
      eval_string t (String.concat " " (List.map Value.to_string args)));

  (* Each expression evaluated costs one step, charged before it is
     compiled.  [expr] takes its single argument's slot; several arguments
     are joined into run-time text. *)
  reg "expr" (fun t node args ->
      charge t 1;
      match args with
      | [ src ] -> expr_value t (expr_of t (arg_words node) src)
      | _ ->
        let src = String.concat " " (List.map Value.to_string args) in
        expr_value t (compile_expr t src));

  reg "if" (fun t node args -> if_clauses t (arg_words node) args);

  (* The loops look their condition and body up once per command, not per
     pass; each pass still charges one step for the test. *)
  reg "while" (fun t node args ->
      match args with
      | [ cond; body ] ->
        let ws = arg_words node in
        let cond = expr_of t ws cond in
        let body = script_of t (next_words ws) body in
        let rec loop () =
          charge t 1;
          if expr_bool t cond then begin
            (try ignore (eval_ast t body) with Continue_exc -> ());
            loop ()
          end
        in
        (try loop () with Break_exc -> ());
        Value.empty
      | _ -> err "wrong # args: should be \"while test command\"");

  reg "for" (fun t node args ->
      match args with
      | [ init; cond; next; body ] ->
        let init_ws = arg_words node in
        let cond_ws = next_words init_ws in
        let next_ws = next_words cond_ws in
        ignore (eval_ast t (script_of t init_ws init));
        let cond = expr_of t cond_ws cond in
        let body = script_of t (next_words next_ws) body in
        let next = script_of t next_ws next in
        let rec loop () =
          charge t 1;
          if expr_bool t cond then begin
            (try ignore (eval_ast t body) with Continue_exc -> ());
            ignore (eval_ast t next);
            loop ()
          end
        in
        (try loop () with Break_exc -> ());
        Value.empty
      | _ -> err "wrong # args: should be \"for start test next command\"");

  reg "foreach" (fun t node args ->
      iterate t ~cmd:"foreach" node args (fun body -> ignore (eval_ast t body));
      Value.empty);

  reg_string "array" (fun t args ->
      let find_array name = (lookup (scope t) name).elems in
      match args with
      | [ "exists"; name ] -> Value.of_bool (Option.is_some (find_array name))
      | [ "size"; name ] -> (
        match find_array name with
        | Some arr -> Value.of_int (Hashtbl.length arr)
        | None -> "0")
      | [ "names"; name ] | [ "names"; name; _ ] -> (
        let pattern = match args with [ _; _; p ] -> Some p | _ -> None in
        match find_array name with
        | None -> ""
        | Some arr ->
          Hashtbl.fold (fun k _ acc -> k :: acc) arr []
          |> List.filter (fun k ->
                 match pattern with
                 | None -> true
                 | Some p -> Strutil.glob_match ~pattern:p k)
          |> List.sort compare |> Value.of_list)
      | [ "get"; name ] -> (
        match find_array name with
        | None -> ""
        | Some arr ->
          Hashtbl.fold (fun k v acc -> (k, Value.to_string v) :: acc) arr []
          |> List.sort compare
          |> List.concat_map (fun (k, v) -> [ k; v ])
          |> Value.of_list)
      | [ "set"; name; kvlist ] ->
        let rec go = function
          | [] -> ()
          | [ _ ] -> err "array set: list must have an even number of elements"
          | k :: v :: rest ->
            set_elem t name k (Value.of_string v);
            go rest
        in
        go (string_list kvlist);
        ""
      | [ "unset"; name ] ->
        let c = lookup (scope t) name in
        if Option.is_some c.elems then c.elems <- None;
        ""
      | [ "unset"; name; key ] ->
        unset_elem t ~complain:false name key;
        ""
      | _ -> err "unsupported array subcommand or wrong # args");

  reg_string "switch" (fun t args ->
      (* switch ?-exact|-glob? string {pattern body ...} or inline pairs;
         a body of "-" falls through to the next body *)
      let glob, rest =
        match args with
        | "-glob" :: rest -> (true, rest)
        | "-exact" :: rest -> (false, rest)
        | "--" :: rest -> (false, rest)
        | rest -> (false, rest)
      in
      let subject, pairs =
        match rest with
        | [ subject; block ] -> (subject, string_list block)
        | subject :: (_ :: _ as inline) -> (subject, inline)
        | _ -> err "wrong # args: should be \"switch ?options? string pattern body ...\""
      in
      let rec to_pairs = function
        | [] -> []
        | [ _ ] -> err "switch: extra pattern with no body"
        | p :: b :: rest -> (p, b) :: to_pairs rest
      in
      let pairs = to_pairs pairs in
      let matches p =
        p = "default" || if glob then Strutil.glob_match ~pattern:p subject else p = subject
      in
      let rec fire = function
        | [] -> ""
        | (p, body) :: rest ->
          if matches p then
            (* fall through "-" bodies to the next real body *)
            let rec body_of b rest =
              if b = "-" then
                match rest with
                | (_, b') :: rest' -> body_of b' rest'
                | [] -> err "switch: no body to fall through to"
              else b
            in
            Value.to_string (eval_string t (body_of body rest))
          else fire rest
      in
      fire pairs);

  reg_string "subst" (fun t args ->
      match args with
      | [ s ] -> (
        match Parse.fragments s with
        | frags -> concat_fragments t frags
        | exception Parse.Syntax_error msg -> err "subst: %s" msg)
      | _ -> err "wrong # args: should be \"subst string\"");

  reg_string "puts" (fun t args ->
      match args with
      | [ s ] ->
        t.output (s ^ "\n");
        ""
      | [ "-nonewline"; s ] ->
        t.output s;
        ""
      | _ -> err "wrong # args: should be \"puts ?-nonewline? string\"");

  reg_string "info" (fun t args ->
      match args with
      | [ "exists"; name ] ->
        Value.of_bool
          (match split_array_ref name with
          | Some _ -> scalar_of t name != Value.absent
          | None -> defined (lookup (scope t) name))
      | [ "commands" ] -> Value.of_list (List.sort compare (command_names t))
      | [ "procs" ] ->
        Value.of_list
          (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.proc_bodies []))
      | [ "body"; name ] -> (
        match Hashtbl.find_opt t.proc_bodies name with
        | Some (_, body) -> body
        | None -> err "%S isn't a procedure" name)
      | [ "args"; name ] -> (
        (* the parameter names, without defaults, as Tcl prints them *)
        match Hashtbl.find_opt t.proc_bodies name with
        | Some (params, _) ->
          Value.of_list
            (List.map
               (function Required n | Optional (n, _) -> n | Rest -> "args")
               (parse_params (Value.of_string params)))
        | None -> err "%S isn't a procedure" name)
      | [ "level" ] -> Value.of_int (List.length t.frames)
      | _ -> err "unsupported info subcommand")

let install_strings t0 =
  let reg name run = add_command t0 name { run } in
  let reg_string name fn = register t0 name fn in

  reg_string "string" (fun _ args ->
      match args with
      | "length" :: [ s ] -> Value.of_int (String.length s)
      | "index" :: [ s; i ] ->
        let len = String.length s in
        let i = index_arg ~len i in
        if i < 0 || i >= len then "" else String.make 1 s.[i]
      | "range" :: [ s; first; last ] ->
        let len = String.length s in
        let first = max 0 (index_arg ~len first) in
        let last = min (len - 1) (index_arg ~len last) in
        if first > last then "" else String.sub s first (last - first + 1)
      | "tolower" :: [ s ] -> String.lowercase_ascii s
      | "toupper" :: [ s ] -> String.uppercase_ascii s
      | "trim" :: [ s ] -> String.trim s
      | "trimleft" :: [ s ] ->
        let n = String.length s in
        let rec skip i = if i < n && (s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r') then skip (i + 1) else i in
        let i = skip 0 in
        String.sub s i (n - i)
      | "trimright" :: [ s ] ->
        let rec skip i = if i > 0 && (s.[i - 1] = ' ' || s.[i - 1] = '\t' || s.[i - 1] = '\n' || s.[i - 1] = '\r') then skip (i - 1) else i in
        String.sub s 0 (skip (String.length s))
      | "last" :: [ needle; hay ] -> (
        if needle = "" then "-1"
        else
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            if i < 0 then -1 else if String.sub hay i nl = needle then i else go (i - 1)
          in
          Value.of_int (go (hl - nl)))
      | "equal" :: [ a; b ] -> Value.of_bool (String.equal a b)
      | "compare" :: [ a; b ] -> Value.of_int (compare a b)
      | "first" :: [ needle; hay ] -> (
        if needle = "" then "-1"
        else
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            if i + nl > hl then -1
            else if String.sub hay i nl = needle then i
            else go (i + 1)
          in
          Value.of_int (go 0))
      | "match" :: [ pattern; s ] -> Value.of_bool (Strutil.glob_match ~pattern s)
      | "repeat" :: [ s; n ] ->
        let n = int_arg "count" n in
        if n <= 0 then ""
        else begin
          let b = Buffer.create (String.length s * n) in
          for _ = 1 to n do
            Buffer.add_string b s
          done;
          Buffer.contents b
        end
      | "reverse" :: [ s ] ->
        String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
      | "map" :: [ mapping; s ] ->
        (* longest-first, left-to-right, single pass (Tcl semantics) *)
        let rec to_pairs = function
          | [] -> []
          | [ _ ] -> err "string map: unbalanced mapping list"
          | k :: v :: rest -> (k, v) :: to_pairs rest
        in
        let pairs = to_pairs (string_list mapping) in
        let buf = Buffer.create (String.length s) in
        let n = String.length s in
        let rec go i =
          if i < n then begin
            let matched =
              List.find_opt
                (fun (k, _) ->
                  k <> ""
                  && String.length k <= n - i
                  && String.sub s i (String.length k) = k)
                pairs
            in
            match matched with
            | Some (k, v) ->
              Buffer.add_string buf v;
              go (i + String.length k)
            | None ->
              Buffer.add_char buf s.[i];
              go (i + 1)
          end
        in
        go 0;
        Buffer.contents buf
      | sub :: _ -> err "unsupported string subcommand %S or wrong # args" sub
      | [] -> err "wrong # args: should be \"string subcommand ...\"");

  reg "append" (fun t node args ->
      match args with
      | name :: parts ->
        update t node name append parts
      | [] -> err "wrong # args: should be \"append varName ?value ...?\"");

  reg_string "format" (fun _ args ->
      match args with
      | fmt :: rest -> (
        match Strutil.format fmt rest with Ok s -> s | Error e -> err "format: %s" e)
      | [] -> err "wrong # args: should be \"format formatString ?arg ...?\"");

  let split s ~on =
    Value.of_elements (Array.of_list (List.map Value.of_string (Strutil.split s ~on)))
  in
  reg "split" (fun _ _ args ->
      match args with
      | [ s ] -> split (Value.to_string s) ~on:" \t\n\r"
      | [ s; on ] -> split (Value.to_string s) ~on:(Value.to_string on)
      | _ -> err "wrong # args: should be \"split string ?splitChars?\"");

  reg_string "join" (fun _ args ->
      match args with
      | [ l ] -> String.concat " " (string_list l)
      | [ l; sep ] -> String.concat sep (string_list l)
      | _ -> err "wrong # args: should be \"join list ?joinString?\"");

  reg_string "regexp" (fun t args ->
      let nocase, args =
        match args with
        | "-nocase" :: rest -> (true, rest)
        | "--" :: rest -> (false, rest)
        | rest -> (false, rest)
      in
      match args with
      | pattern :: subject :: vars -> (
        let re =
          match Regex.compile ~nocase pattern with
          | Ok re -> re
          | Error msg -> err "regexp: %s" msg
        in
        match Regex.search re subject with
        | None -> "0"
        | Some r ->
          let whole, _, _ = r.Regex.whole in
          List.iteri
            (fun i var ->
              let text =
                if i = 0 then whole
                else if i - 1 < Array.length r.Regex.groups then
                  match r.Regex.groups.(i - 1) with
                  | Some (g, _, _) -> g
                  | None -> ""
                else ""
              in
              set_ref t var (Value.of_string text))
            vars;
          "1")
      | _ -> err "wrong # args: should be \"regexp ?-nocase? exp string ?matchVar ...?\"");

  reg_string "regsub" (fun t args ->
      let rec opts all nocase = function
        | "-all" :: rest -> opts true nocase rest
        | "-nocase" :: rest -> opts all true rest
        | "--" :: rest -> (all, nocase, rest)
        | rest -> (all, nocase, rest)
      in
      let all, nocase, args = opts false false args in
      match args with
      | [ pattern; subject; template ] | [ pattern; subject; template; _ ] -> (
        let re =
          match Regex.compile ~nocase pattern with
          | Ok re -> re
          | Error msg -> err "regsub: %s" msg
        in
        let result, count = Regex.replace re ~all ~template subject in
        match args with
        | [ _; _; _; var ] ->
          set_ref t var (Value.of_string result);
          Value.of_int count
        | _ -> result)
      | _ ->
        err "wrong # args: should be \"regsub ?-all? ?-nocase? exp string subSpec ?varName?\"")

let install_lists t0 =
  let reg name run = add_command t0 name { run } in
  let reg_string name fn = register t0 name fn in

  reg "list" (fun _ _ args -> Value.of_elements (Array.of_list args));

  reg "llength" (fun _ _ args ->
      match args with
      | [ l ] -> Value.int (Array.length (list_of l))
      | _ -> err "wrong # args: should be \"llength list\"");

  reg "lindex" (fun _ _ args ->
      match args with
      | [ l ] -> l
      | [ l; i ] ->
        let items = list_of l in
        let len = Array.length items in
        let i = index_value ~len i in
        if i < 0 || i >= len then Value.empty else items.(i)
      | _ -> err "wrong # args: should be \"lindex list ?index?\"");

  reg "lappend" (fun t node args ->
      match args with
      | name :: items ->
        update t node name lappend items
      | [] -> err "wrong # args: should be \"lappend varName ?value ...?\"");

  reg_string "lrange" (fun _ args ->
      match args with
      | [ l; first; last ] ->
        let items = string_list l in
        let len = List.length items in
        let first = max 0 (index_arg ~len first) in
        let last = min (len - 1) (index_arg ~len last) in
        if first > last then ""
        else Value.of_list (List.filteri (fun i _ -> i >= first && i <= last) items)
      | _ -> err "wrong # args: should be \"lrange list first last\"");

  reg_string "lsort" (fun _ args ->
      let rec split_opts opts args =
        match args with
        | [ l ] -> (List.rev opts, l)
        | opt :: rest when String.length opt > 0 && opt.[0] = '-' -> split_opts (opt :: opts) rest
        | _ -> err "wrong # args: should be \"lsort ?options? list\""
      in
      let opts, l = split_opts [] args in
      let items = string_list l in
      let numeric = List.mem "-integer" opts || List.mem "-real" opts in
      let cmp a b =
        if numeric then
          let fa =
            match Value.float_of a with Some f -> f | None -> err "expected number, got %S" a
          in
          let fb =
            match Value.float_of b with Some f -> f | None -> err "expected number, got %S" b
          in
          compare fa fb
        else compare a b
      in
      let cmp = if List.mem "-decreasing" opts then fun a b -> cmp b a else cmp in
      let sorted = List.stable_sort cmp items in
      let sorted =
        if List.mem "-unique" opts then
          List.rev
            (List.fold_left (fun acc x -> match acc with y :: _ when cmp x y = 0 -> acc | _ -> x :: acc) [] sorted)
        else sorted
      in
      Value.of_list sorted);

  reg_string "lsearch" (fun _ args ->
      let glob, l, pat =
        match args with
        | [ "-exact"; l; p ] -> (false, l, p)
        | [ "-glob"; l; p ] -> (true, l, p)
        | [ l; p ] -> (true, l, p) (* Tcl defaults to glob matching *)
        | _ -> err "wrong # args: should be \"lsearch ?mode? list pattern\""
      in
      let items = string_list l in
      let matches x = if glob then Strutil.glob_match ~pattern:pat x else String.equal pat x in
      let rec go i = function
        | [] -> -1
        | x :: rest -> if matches x then i else go (i + 1) rest
      in
      Value.of_int (go 0 items));

  reg_string "linsert" (fun _ args ->
      match args with
      | l :: i :: (_ :: _ as items) ->
        let cur = string_list l in
        let len = List.length cur in
        let i = max 0 (min len (index_arg ~len:(len + 1) i)) in
        let before = List.filteri (fun j _ -> j < i) cur in
        let after = List.filteri (fun j _ -> j >= i) cur in
        Value.of_list (before @ items @ after)
      | _ -> err "wrong # args: should be \"linsert list index element ?element ...?\"");

  reg_string "lreverse" (fun _ args ->
      match args with
      | [ l ] -> Value.of_list (List.rev (string_list l))
      | _ -> err "wrong # args: should be \"lreverse list\"");

  reg_string "lassign" (fun t args ->
      match args with
      | l :: (_ :: _ as names) ->
        let items = string_list l in
        let rec go names items =
          match names with
          | [] -> Value.of_list items
          | n :: nrest -> (
            match items with
            | [] ->
              set_ref t n Value.empty;
              go nrest []
            | x :: irest ->
              set_ref t n (Value.of_string x);
              go nrest irest)
        in
        go names items
      | _ -> err "wrong # args: should be \"lassign list varName ?varName ...?\"");

  reg_string "concat" (fun _ args -> concat args);

  reg_string "lrepeat" (fun _ args ->
      match args with
      | count :: (_ :: _ as items) ->
        let n = int_arg "count" count in
        if n < 0 then err "lrepeat: negative count";
        Value.of_list (List.concat (List.init n (fun _ -> items)))
      | _ -> err "wrong # args: should be \"lrepeat count ?value ...?\"");

  reg "lmap" (fun t node args ->
      let out = ref [] in
      iterate t ~cmd:"lmap" node args (fun body -> out := eval_ast t body :: !out);
      Value.of_elements (Array.of_list (List.rev !out)))

let make ~commands ~step_limit ~max_depth caches =
  let uid = fresh_uid caches in
  let t =
    {
      uid;
      cmd_epoch = 0;
      commands;
      proc_bodies = Hashtbl.create 16;
      global = frame [||] [||] (Some (Hashtbl.create 32)) uid;
      frames = [];
      steps = 0;
      limit = step_limit;
      depth = 0;
      max_depth;
      prof_commands = 0;
      prof_proc_calls = 0;
      prof_max_depth = 0;
      prof_parse_hits = 0;
      prof_parse_misses = 0;
      prof_parse_evictions = 0;
      prof_expr_hits = 0;
      prof_expr_misses = 0;
      caches;
      expr_env =
        { var = (fun _ -> Value.empty); cmd = (fun _ -> Value.empty) };
      out_buf = Buffer.create 256;
      output = ignore;
    }
  in
  t.expr_env <-
    {
      var = (fun r -> expr_var t r);
      cmd = (fun c -> expr_cmd t c);
    };
  t.output <- (fun s -> Buffer.add_string t.out_buf s);
  t

(* The builtin command table, built once; every interpreter starts from a
   copy, so creating one hashes no names and builds no adapters.  Nothing
   writes the prototype, so concurrent simulations may copy it. *)
let builtins =
  let t = make ~commands:(Hashtbl.create 64) ~step_limit:None ~max_depth:0 (create_caches ()) in
  install_core t;
  install_strings t;
  install_lists t;
  t.commands

let create ?step_limit ?(max_depth = 256) ?caches () =
  let caches = match caches with Some c -> c | None -> create_caches () in
  make ~commands:(Hashtbl.copy builtins) ~step_limit ~max_depth caches

(* ---- variables, host side: strings at the boundary ----------------------- *)

let set_var t name v = set_var t name (Value.of_string v)
let get_var_opt t name =
  let v = (lookup (scope t) name).v in
  if v == Value.absent then None else Some (Value.to_string v)

let unset_var t name = unset_var t ~complain:false name

(* ---- profiling ---------------------------------------------------------- *)

(* Defined last: the [commands]/[max_depth] field names would otherwise
   shadow the interpreter record's own fields for the code above. *)
type profile = {
  commands : int;
  proc_calls : int;
  max_depth : int;
  parse_hits : int;
  parse_misses : int;
  parse_evictions : int;
  expr_hits : int;
  expr_misses : int;
      (** also the number of expressions this interpreter compiled *)
}

let profile t =
  {
    commands = t.prof_commands;
    proc_calls = t.prof_proc_calls;
    max_depth = t.prof_max_depth;
    parse_hits = t.prof_parse_hits;
    parse_misses = t.prof_parse_misses;
    parse_evictions = t.prof_parse_evictions;
    expr_hits = t.prof_expr_hits;
    expr_misses = t.prof_expr_misses;
  }
