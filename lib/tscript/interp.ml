exception Error_exc of string
exception Return_exc of Value.t
exception Break_exc
exception Continue_exc
exception Resource_exhausted

module Lru = Tacoma_util.Lru
module Decimal = Tacoma_util.Decimal

type param = Required of string | Optional of string * Value.t | Rest

(* A command takes and returns interpreter values, and receives the node it
   was invoked from, so builtins that take a script or expression argument
   can use the compile slots of its literal braced words.  Host commands
   ({!register}) see strings and ignore the node.  A proc's entry carries
   its definition: its parameter list as written ([spec]) and as read, its
   body and the body's word with those after it (for its slot), its
   parameter names (shared by its frames), its [arity] when every
   parameter is required (-1 otherwise) and whether [name] is a builtin's,
   so the command table is all [info] reads. *)
type command_fn = { run : t -> node -> Value.t list -> Value.t; kind : kind }
and kind = Builtin | Host | Proc of proc_def

and proc_def = {
  name : string;
  spec : Value.t;
  formals : param list;
  body : Value.t;
  body_words : code Ast.word list;
  names : string array;
  arity : int;
  shadows : bool;
}

(* A command node's compiled form: what running the node does, built on
   its first execution (see "compilation" below) *)
and code = t -> Value.t

and node = code Ast.command
and script = code Ast.script

(* The parse cache: parsed scripts keyed by source string, LRU-bounded.
   Parsed ASTs carry compiled commands and compile slots, but compiled
   commands validate against the evaluating interpreter, so a cache
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
      (* bumped by register/unregister so stale resolutions are refused *)
  mutable builtin_stamp : int; (* [builtin_uid] until a builtin name is redefined *)
  global : frame; (* its stamp is [uid] *)
  mutable frames : frame list; (* innermost first; [] means global scope *)
  mutable steps : int;
  limit : int option;
  mutable depth : int;
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
let list_of v = try Value.elements v with Value.Bad_list msg -> raise (Error_exc msg)
let string_list s = match Value.to_list s with Ok l -> l | Error msg -> raise (Error_exc msg)

(* The builtin command table, filled once below; every interpreter starts
   from a copy, so creating one hashes no names and builds no adapters.
   Nothing writes it afterwards, so concurrent simulations may copy it.
   [compilers] holds, for some builtins, what compiles a node naming the
   builtin literally (see "compilation"), filled and read the same way. *)
let builtins : (string, command_fn) Hashtbl.t = Hashtbl.create 64
let is_builtin name = Hashtbl.mem builtins name

let compilers : (string, node -> string -> code Ast.word list -> code option) Hashtbl.t =
  Hashtbl.create 16

(* the [id] of a resolution cache holding a builtin, and the
   [builtin_stamp] of an interpreter that has every builtin; the stamp of
   one that has redefined or removed one, which no cache holds *)
let builtin_uid = 0 and shadowed = -2

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

(* [incr], [append] and [lappend]: [f x] maps the variable's scalar
   ([Value.absent] when it has none, or is an array) to the value stored
   and returned.  A literal name updates through its reference ... *)
let update_ref t (r : Value.var_ref) f x =
  let c = ref_cell t r in
  let v = f x c.v in
  write r.name c v;
  v

(* ... and a name given at run time through the lookup by name *)
let update t name f x =
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
let step_limit t = t.limit

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

(* every command run costs one step, charged before its words are
   evaluated *)
let step t =
  charge t 1;
  t.prof_commands <- t.prof_commands + 1

(* code specialised for the builtins runs only in an interpreter that
   still has every one of them *)
let intact t = t.builtin_stamp = builtin_uid

(* What a literal command name resolved to: valid for the interpreter [id]
   while its command table is at [epoch], or in every interpreter that has
   all the builtins when [id] is [builtin_uid]. *)
type cache = { mutable id : int; mutable epoch : int; mutable fn : command_fn }

let unresolved = { run = (fun _ _ _ -> Value.empty); kind = Host }
let cache () = { id = -1; epoch = -1; fn = unresolved }

let find_command t name =
  match Hashtbl.find t.commands name with
  | fn -> fn
  | exception Not_found -> err "invalid command name %S" name

let resolve t c name =
  if c.id = t.builtin_stamp || (c.id = t.uid && c.epoch = t.cmd_epoch) then c.fn
  else begin
    let fn = find_command t name in
    c.fn <- fn;
    c.id <- (if fn.kind == Builtin && intact t then builtin_uid else t.uid);
    c.epoch <- t.cmd_epoch;
    fn
  end

(* left-to-right argument evaluation, arity-specialised so the common 1-3
   argument commands build their list without a loop *)
let rec eval_list t evs =
  match evs with
  | [] -> []
  | ev :: rest ->
    let v = ev t in
    v :: eval_list t rest

let args_ev (evs : code list) =
  match evs with
  | [] -> fun _ -> []
  | [ a ] -> fun t -> [ a t ]
  | [ a; b ] ->
    fun t ->
      let va = a t in
      let vb = b t in
      [ va; vb ]
  | [ a; b; c ] ->
    fun t ->
      let va = a t in
      let vb = b t in
      let vc = c t in
      [ va; vb; vc ]
  | evs -> fun t -> eval_list t evs

(* the words evaluated, left to right, into the cells of a new frame [id] *)
let eval_cells t id (evs : code array) =
  let n = Array.length evs in
  let cells = Array.make n Value.nowhere in
  for i = 0 to n - 1 do
    Array.unsafe_set cells i (Value.cell id ((Array.unsafe_get evs i) t))
  done;
  cells

(* the values of [cells.(0..i)], for a command that takes a list *)
let rec values (cells : Value.cell array) i acc =
  if i < 0 then acc else values cells (i - 1) (cells.(i).v :: acc)

(* proc-call nesting bound *)
let max_depth = 256

let check_depth t =
  if t.depth >= max_depth then err "too many nested proc calls (max %d)" max_depth

let pop_frame t =
  t.frames <- List.tl t.frames;
  t.depth <- t.depth - 1

let rec concat_fragments t frags = Bytes.unsafe_to_string (concat_from t frags 0)

(* the fragments' strings joined: each is evaluated, left to right, on the
   way down, and copied into the one buffer on the way back up *)
and concat_from t frags len =
  match frags with
  | [] -> Bytes.create len
  | frag :: rest ->
    let s = fragment_string t frag in
    let b = concat_from t rest (len + String.length s) in
    Bytes.blit_string s 0 b len (String.length s);
    b

and fragment_string t frag =
  match frag with Ast.Lit s -> s | _ -> Value.to_string (eval_fragment t frag)

and eval_fragment t frag =
  match frag with
  | Ast.Lit s -> Value.of_string s
  | Ast.Var r -> read r.name (ref_cell t r)
  | Ast.VarElem (name, [ frag ]) -> get_elem t name (fragment_string t frag)
  | Ast.VarElem (name, index_frags) -> get_elem t name (concat_fragments t index_frags)
  | Ast.Cmd script -> eval_ast t script

and eval_ast t script =
  match script with
  | [] -> Value.empty
  | [ cmd ] -> run t cmd
  | cmd :: rest ->
    ignore (run t cmd);
    eval_ast t rest

and run t (cmd : node) =
  match cmd.code with
  | Some code -> code t
  | None ->
    let code = compile cmd in
    cmd.code <- Some code;
    code t

(* a proc's body, run in its call's [frame] *)
and enter t (d : proc_def) frame =
  t.frames <- frame :: t.frames;
  t.depth <- t.depth + 1;
  t.prof_proc_calls <- t.prof_proc_calls + 1;
  if t.depth > t.prof_max_depth then t.prof_max_depth <- t.depth;
  match eval_ast t (script_of t d.body_words d.body) with
  | v ->
    pop_frame t;
    v
  | exception Return_exc v ->
    pop_frame t;
    v
  | exception e ->
    pop_frame t;
    raise e

(* ---- compilation -------------------------------------------------------

   A command node is compiled on its first execution, into a closure kept
   on the node and shared by every interpreter that runs it, so it
   captures none.  A builtin named literally, with arguments of a shape its
   entry in [compilers] knows, runs as that entry's closure: it takes its
   words' values as OCaml arguments and falls back to the builtin's [run]
   on a list when the interpreter lacks a builtin.  A literal name that no
   builtin has runs as [call].  Anything else runs as [generic], the
   invoke every command took before there were compiled forms.  All three
   charge the command's step first and evaluate the words left to right
   before they resolve the name. *)

(* a word's evaluator, chosen once: a literal's value; a word of one
   fragment is that fragment's value itself, so [$x] passes on the
   variable's value, read through its reference, with whatever forms it
   has cached; several fragments are joined *)
and word_ev (w : code Ast.word) : code =
  match w with
  | Ast.Braced { value; _ } | Ast.Literal value -> fun _ -> value
  | Ast.Frags [ Ast.Var r ] -> fun t -> read r.name (ref_cell t r)
  | Ast.Frags [ Ast.Cmd script ] -> fun t -> eval_ast t script
  | Ast.Frags [ frag ] -> fun t -> eval_fragment t frag
  | Ast.Frags frags -> fun t -> Value.of_string (concat_fragments t frags)

and compile (node : node) : code =
  match node.words with
  | (Ast.Braced { value; _ } | Ast.Literal value) :: ws -> (
    let name = Value.to_string value in
    match Hashtbl.find_opt compilers name with
    | Some compiler -> (
      match compiler node name ws with Some code -> code | None -> generic node)
    | None -> if is_builtin name then generic node else call node name ws)
  | _ -> generic node

(* The words evaluated, the name resolved (a literal one through its
   cache), and the command run on the list of the words' values.  A name
   built at run time is resolved on every call, so its words are evaluated
   straight into the cells of a new frame, which a proc whose parameters
   are all required and as many as the words runs in, as in [call]. *)
and generic (node : node) : code =
  match node.words with
  | [] -> fun _ -> Value.empty
  | (Ast.Braced { value; _ } | Ast.Literal value) :: ws ->
    let name = Value.to_string value and c = cache () in
    let args = args_ev (List.map word_ev ws) in
    fun t ->
      step t;
      let args = args t in
      (resolve t c name).run t node args
  | name_word :: ws ->
    let name = word_ev name_word and evs = Array.of_list (List.map word_ev ws) in
    fun t ->
      step t;
      let name = Value.to_string (name t) in
      let id = fresh_uid t.caches in
      let cells = eval_cells t id evs in
      let fn = find_command t name in
      match fn.kind with
      | Proc d when d.arity = Array.length cells -> run_proc t d cells id
      | _ -> fn.run t node (values cells (Array.length cells - 1) [])

(* A call by a literal name that no builtin has: a proc or a host command.
   While the name last resolved to a proc whose parameters are all
   required and as many as the call's words, the words are evaluated
   straight into the cells of a new frame, which the proc runs in if the
   name still resolves to such a proc.  Otherwise they make a list, as in
   [generic]. *)
and call (node : node) name ws : code =
  let evl = List.map word_ev ws in
  let evs = Array.of_list evl and args = args_ev evl and c = cache () in
  let n = Array.length evs in
  fun t ->
    step t;
    match c.fn.kind with
    | Proc d when d.arity = n && intact t -> (
      let id = fresh_uid t.caches in
      let cells = eval_cells t id evs in
      let fn = resolve t c name in
      match fn.kind with
      | Proc d when d.arity = n -> run_proc t d cells id
      | _ -> fn.run t node (values cells (Array.length cells - 1) []))
    | _ ->
      let args = args t in
      (resolve t c name).run t node args

(* a proc whose parameters are all required, in a frame of its arguments *)
and run_proc t d cells id =
  check_depth t;
  enter t d (frame d.names cells None id)

(* a compiled builtin's way out when the interpreter lacks a builtin:
   whatever [name] is there now, run on the values already evaluated *)
let fallback t node name args = (find_command t name).run t node args

let eval_string t src = eval_ast t (parse t src)

(* a command substitution inside an expression: its slot, like a braced
   word's, is filled from the LRU on first evaluation (so a syntax error
   still surfaces then) and counts as a parse hit afterwards *)
let expr_cmd t (c : script Expr.cmd) =
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
let subst_string t s =
  match Parse.fragments s with
  | frags -> concat_fragments t frags
  | exception Parse.Syntax_error msg -> err "substitution: %s" msg

(* expr hands an array reference over as "name(raw index)", whose index
   still needs a round of substitution ($a($i)); only a scalar is cached *)
let expr_var t (r : Value.var_ref) =
  match split_array_ref r.name with
  | Some (name, raw_index) -> get_elem t name (subst_string t raw_index)
  | None -> read r.name (ref_cell t r)

(* the callers charge the expression's step *)
let expr_value t ast =
  try Expr.eval_ast t.expr_env ast with Expr.Error msg -> err "expr: %s" msg

let expr_bool t ast =
  try Expr.eval_ast_bool t.expr_env ast with Expr.Error msg -> err "expr: %s" msg

let eval t src =
  match eval_string t src with
  | v -> Ok (Value.to_string v)
  | exception Error_exc msg -> Error msg
  | exception Return_exc v -> Ok (Value.to_string v)
  | exception Break_exc -> Error "invoked \"break\" outside of a loop"
  | exception Continue_exc -> Error "invoked \"continue\" outside of a loop"
  (* nesting past the stack, in the parsers or the evaluator; every frame
     pushed on the way down was popped on the way out *)
  | exception Stack_overflow -> Error "too many nested evaluations (infinite loop?)"

(* ---- host command API --------------------------------------------------- *)

(* a host call has no command node: its arguments are all run-time text *)
let call t name args =
  match Hashtbl.find_opt t.commands name with
  | Some fn -> Value.to_string (fn.run t (Ast.command []) (List.map Value.of_string args))
  | None -> err "invalid command name %S" name

(* [shadows]: [name] is a builtin's, whose cached nodes this interpreter
   may no longer trust *)
let insert t name fn ~shadows =
  t.cmd_epoch <- t.cmd_epoch + 1;
  if shadows then t.builtin_stamp <- shadowed;
  Hashtbl.replace t.commands name fn

let add_command t name fn = insert t name fn ~shadows:(is_builtin name)

(* The one adapter from a command on strings to a command on values: host
   commands, and the builtins with no hot path.  [result] makes the value
   the command's reply stands for. *)
let string_command kind result fn =
  { run = (fun t _ args -> result (fn t (List.map Value.to_string args))); kind }

type reply = Text of string | Items of string list

let rec fill_items a i = function
  | [] -> ()
  | s :: rest ->
    Array.unsafe_set a i (Value.of_string s);
    fill_items a (i + 1) rest

(* a list reply is handed on as its elements; its string is rendered only
   if a script asks for it *)
let value_of_reply = function
  | Text s -> Value.of_string s
  | Items [] -> Value.empty
  | Items (first :: rest as items) ->
    let a = Array.make (List.length items) (Value.of_string first) in
    fill_items a 1 rest;
    Value.of_elements a

let register t name fn = add_command t name (string_command Host value_of_reply fn)

let unregister t name =
  t.cmd_epoch <- t.cmd_epoch + 1;
  if is_builtin name then t.builtin_stamp <- shadowed;
  Hashtbl.remove t.commands name

(* [info commands]/[info procs]: the sorted names of the commands [keep]
   accepts, filtered by an optional glob pattern *)
let command_names t pattern keep =
  let matches name =
    match pattern with [ pattern ] -> Strutil.glob_match ~pattern name | _ -> true
  in
  Hashtbl.fold (fun k fn acc -> if keep fn && matches k then k :: acc else acc) t.commands []
  |> List.sort compare |> Value.of_list

let set_output t fn = t.output <- fn

let take_output t =
  let s = Buffer.contents t.out_buf in
  Buffer.clear t.out_buf;
  s

(* ---- procs -------------------------------------------------------------- *)

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
let bind_params t (d : proc_def) args =
  let id = fresh_uid t.caches in
  let cells = Array.make (Array.length d.names) Value.nowhere in
  if not (bind_args cells id 0 d.formals args) then
    err "wrong # args: should be %S" (usage_of_params d.name d.formals);
  frame d.names cells None id

(* [body_words] starts at the body's word: a literal body keeps its slot in
   the definition, so each call reuses the parse instead of looking it up.
   The command depends on no interpreter. *)
let compile_proc name spec body body_words =
  let params = parse_params spec in
  let required = List.for_all (function Required _ -> true | _ -> false) params in
  let arity = if required then List.length params else -1 in
  let names = Array.of_list (List.map param_name params) in
  let shadows = is_builtin name in
  let d = { name; spec; formals = params; body; body_words; names; arity; shadows } in
  let run t _ args =
    check_depth t;
    enter t d (bind_params t d args)
  in
  { run; kind = Proc d }

(* [slot] keeps the command a [proc] node defined last: run again with the
   same name, parameter and body values, as an agent's CODE is at every
   activation, a definition is one table insert *)
let define_proc t slot name spec body body_words =
  match !slot with
  | Some ({ kind = Proc d; _ } as fn)
    when d.spec == spec && d.body == body && String.equal d.name name ->
    insert t name fn ~shadows:d.shadows
  | _ ->
    let fn = compile_proc name spec body body_words in
    slot := Some fn;
    add_command t name fn

let proc_def t name =
  match Hashtbl.find_opt t.commands name with
  | Some { kind = Proc d; _ } -> d
  | _ -> err "%S isn't a procedure" name

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

(* Tcl's level argument ([uplevel], [upvar]): [N] counts frames up from the
   current scope, [#N] down from the global scope, [#0]; the result counts
   up.  [None] when [s] is no level, a negative count included.  A level
   past the global scope is an error, as in Tcl. *)
let level_of t s =
  let depth = List.length t.frames in
  let bad () = err "bad level \"%s\"" s in
  let up =
    if s <> "" && s.[0] = '#' then
      match Value.int_of (String.sub s 1 (String.length s - 1)) with
      | Some n when n >= 0 -> Some (depth - n)
      | _ -> bad ()
    else
      match Value.int_of s with
      | Some n -> if n >= 0 then Some n else None
      | None -> if s <> "" && s.[0] >= '0' && s.[0] <= '9' then bad () else None
  in
  match up with Some n when n < 0 || n > depth -> bad () | up -> up

(* the level a command takes when given none: the caller's *)
let default_level t = if t.frames = [] then err "bad level \"1\"" else 1

let rec drop frames n = if n = 0 then frames else drop (List.tl frames) (n - 1)

(* [foreach]/[lmap]: varList list ?varList list ...? body.  Each pass gives
   every variable list its next items ("" once its list runs out) and runs
   [each] on the body; the loop ends when every list is used up.  [refs]
   holds the loop variables' references, in order, so a pass assigns them
   without a lookup; [groups] holds each variable list's length and the
   element array of its list, which a pass reads the items from.  The
   body ([body], its word first in [body_ws]) is looked up once per pass. *)
let iterate t refs (groups : (int * Value.t array) array) body_ws body each =
  let passes =
    Array.fold_left (fun m (n, items) -> max m ((Array.length items + n - 1) / n)) 0 groups
  in
  try
    for pass = 0 to passes - 1 do
      (* pass [pass] gives a group of [n] variables items [pass*n] to
         [pass*n + n - 1] *)
      let k = ref 0 in
      for g = 0 to Array.length groups - 1 do
        let n, items = groups.(g) in
        for j = 0 to n - 1 do
          let (r : Value.var_ref) = refs.(!k) in
          let i = (pass * n) + j in
          let v = if i < Array.length items then items.(i) else Value.empty in
          if split_array_ref r.name = None then write r.name (ref_cell t r) v
          else set_ref t r.name v;
          incr k
        done
      done;
      try each t (script_of t body_ws body) with Continue_exc -> ()
    done
  with Break_exc -> ()

let foreach t refs groups body_ws body =
  iterate t refs groups body_ws body (fun t body -> ignore (eval_ast t body));
  Value.empty

let lmap t refs groups body_ws body =
  let out = ref [] in
  iterate t refs groups body_ws body (fun t body -> out := eval_ast t body :: !out);
  Value.of_elements (Array.of_list (List.rev !out))

(* [loop] ([foreach] or [lmap]) on a list of arguments: each variable list
   is read here, and each variable gets a new reference *)
let iterate_args t ~cmd node args loop =
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
  let refs = Array.map Value.var_ref (Array.concat (List.map fst groups)) in
  let groups = List.map (fun (vars, items) -> (Array.length vars, items)) groups in
  let groups = Array.of_list groups in
  loop t refs groups body_ws body

let int_arg what s =
  match Value.int_of s with Some i -> i | None -> err "expected integer for %s, got %S" what s

let int_value what v =
  match Value.to_int_exn v with
  | i -> i
  | exception Value.Not_int -> err "expected integer for %s, got %S" what (Value.to_string v)

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

(* one condition of [if], [while] or [for]: a step, then the test *)
let test t cond =
  charge t 1;
  expr_bool t cond

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
      if test t (expr_of t ws cond) then eval_ast t (script_of t body_ws body)
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

(* ---- compiled builtins ----------------------------------------------------

   What [compilers] holds: for a node that names a builtin literally, a
   closure that takes the words' values as OCaml arguments, when the
   arguments have a shape that the closure handles as the builtin's [run]
   would; [None] otherwise.  The closure charges the command's step,
   evaluates the words in order and, in an interpreter that lacks a
   builtin, hands their values to whatever has the name there. *)

let literal_value (w : code Ast.word) =
  match w with Ast.Braced { value; _ } | Ast.Literal value -> Some value | Ast.Frags _ -> None

(* [k] of the reference of [w], when [w] is a literal variable name and
   not an array element's *)
let on_var w (k : Value.var_ref -> code) =
  match literal_value w with
  | Some v when split_array_ref (Value.to_string v) = None ->
    Some (k (Value.var_ref (Value.to_string v)))
  | Some _ | None -> None

(* [values]: the words', all literal *)
let compile0 f node name values : code =
 fun t ->
  step t;
  if intact t then f t else fallback t node name values

let compile1 f node name w : code =
  let a = word_ev w in
  fun t ->
    step t;
    let va = a t in
    if intact t then f t va else fallback t node name [ va ]

let compile2 f node name w1 w2 : code =
  let a = word_ev w1 and b = word_ev w2 in
  fun t ->
    step t;
    let va = a t in
    let vb = b t in
    if intact t then f t va vb else fallback t node name [ va; vb ]

let compile3 f node name w1 w2 w3 : code =
  let a = word_ev w1 and b = word_ev w2 and c = word_ev w3 in
  fun t ->
    step t;
    let va = a t in
    let vb = b t in
    let vc = c t in
    if intact t then f t va vb vc else fallback t node name [ va; vb; vc ]

let compile_list f node name ws : code =
  let args = args_ev (List.map word_ev ws) in
  fun t ->
    step t;
    let vs = args t in
    if intact t then f t vs else fallback t node name vs

(* [if] with every word literal, its clauses read once: each condition
   and body is a word list for [expr_of] or [script_of] and its value *)
let rec run_if t clauses els =
  match clauses with
  | ((cw, cv), (bw, bv)) :: rest ->
    if test t (expr_of t cw cv) then eval_ast t (script_of t bw bv) else run_if t rest els
  | [] -> (
    match els with Some (bw, bv) -> eval_ast t (script_of t bw bv) | None -> Value.empty)

let compile_if node name ws =
  let lits = List.filter_map (fun w -> Option.map (fun v -> ([ w ], v)) (literal_value w)) ws in
  let rec clauses = function
    | cond :: rest -> (
      let rest = match rest with (_, v) :: r when is_word "then" v -> r | r -> r in
      match rest with
      | body :: rest -> (
        let more (cs, els) = Some ((cond, body) :: cs, els) in
        match rest with
        | [] -> more ([], None)
        | [ (_, w); b ] when is_word "else" w -> more ([], Some b)
        | [ b ] -> more ([], Some b)
        | (_, w) :: rest when is_word "elseif" w -> Option.bind (clauses rest) more
        | _ -> None)
      | [] -> None)
    | [] -> None
  in
  if List.compare_lengths lits ws <> 0 then None
  else
    Option.map
      (fun (cs, els) -> compile0 (fun t -> run_if t cs els) node name (List.map snd lits))
      (clauses lits)

(* [append] or [lappend] with a literal variable name, which [f] updates
   through its reference *)
let compile_update f node name ws =
  match ws with
  | x :: _ ->
    on_var x (fun r -> compile_list (fun t vs -> update_ref t r f (List.tl vs)) node name ws)
  | [] -> None

(* [foreach] or [lmap] ([loop]) with literal, well-formed variable lists,
   read once into the loop variables' references *)
let compile_iterate loop node name ws =
  (* each variable list's value and names, with its list's evaluator *)
  let rec groups = function
    | [ body ] -> Some ([], body)
    | vars :: items :: rest -> (
      match literal_value vars with
      | None -> None
      | Some v -> (
        match Value.elements v with
        | [||] | (exception Value.Bad_list _) -> None
        | names ->
          Option.map (fun (gs, body) -> ((v, names, word_ev items) :: gs, body)) (groups rest)))
    | [] -> None
  in
  match groups ws with
  | None | Some ([], _) -> None
  | Some (gs, body_word) ->
    let ref_of n = Value.var_ref (Value.to_string n) in
    let refs = Array.concat (List.map (fun (_, names, _) -> Array.map ref_of names) gs) in
    let sizes = List.map (fun (_, names, _) -> Array.length names) gs in
    let lists = List.map (fun (_, _, ev) -> ev) gs and body = word_ev body_word in
    let body_ws = [ body_word ] in
    Some
      (fun t ->
        step t;
        let ls = eval_list t lists in
        let bv = body t in
        if intact t then
          loop t refs (Array.of_list (List.map2 (fun n l -> (n, list_of l)) sizes ls)) body_ws bv
        else
          fallback t node name
            (List.concat (List.map2 (fun (v, _, _) l -> [ v; l ]) gs ls) @ [ bv ]))

(* the builtin table's entries, installed once at start-up, and the
   compilers of the builtins that have one *)
let reg ?compile name run =
  Hashtbl.replace builtins name { run; kind = Builtin };
  Option.iter (Hashtbl.replace compilers name) compile

let reg_string name fn = Hashtbl.replace builtins name (string_command Builtin Value.of_string fn)

let install_core () =
  reg "set"
    ~compile:(fun node name ws ->
      match ws with
      | [ x ] ->
        on_var x (fun r -> compile1 (fun t _ -> read r.name (ref_cell t r)) node name x)
      | [ x; w ] ->
        on_var x (fun r ->
            compile2
              (fun t _ v ->
                write r.name (ref_cell t r) v;
                v)
              node name x w)
      | _ -> None)
    (fun t _ args ->
      match args with
      | [ name ] -> get_ref t (Value.to_string name)
      | [ name; v ] ->
        set_ref t (Value.to_string name) v;
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

  reg "incr"
    ~compile:(fun node name ws ->
      match ws with
      | [ x ] -> on_var x (fun r -> compile1 (fun t _ -> update_ref t r incr_by 1) node name x)
      | [ x; w ] ->
        on_var x (fun r ->
            compile2
              (fun t _ d -> update_ref t r incr_by (int_value "increment" d))
              node name x w)
      | _ -> None)
    (fun t _ args ->
      match args with
      | [ name ] | [ name; _ ] ->
        (* an element of a scalar is a read error, as in Tcl *)
        (match split_array_ref (Value.to_string name) with
        | Some (a, i) when (lookup (scope t) a).v != Value.absent -> ignore (get_elem t a i)
        | _ -> ());
        let delta = match args with [ _; d ] -> int_value "increment" d | _ -> 1 in
        update t name incr_by delta
      | _ -> err "wrong # args: should be \"incr varName ?increment?\"");

  (* outside a proc, [global] does nothing *)
  reg_string "global" (fun t args ->
      (match t.frames with
      | [] -> ()
      | frame :: _ -> List.iter (fun n -> link t frame n t.global n) args);
      "");

  (* upvar ?level? otherVar myVar ?otherVar myVar ...?: with an odd number
     of arguments the first is the level, and a negative count means 1 *)
  reg_string "upvar" (fun t args ->
      let n = List.length args in
      if n < 2 then
        err "wrong # args: should be \"upvar ?level? otherVar localVar ?otherVar localVar ...?\"";
      let up, pairs =
        match args with
        | lvl :: rest when n mod 2 = 1 -> (
          match level_of t lvl with
          | Some up -> (up, rest)
          | None when Value.int_of lvl <> None -> (default_level t, rest)
          | None -> err "bad level \"%s\"" lvl)
        | _ -> (default_level t, args)
      in
      let target = match drop t.frames up with f :: _ -> f | [] -> t.global in
      let frame = scope t in
      let rec link_pairs = function
        | other :: local :: rest ->
          link t frame local target other;
          link_pairs rest
        | _ -> ()
      in
      link_pairs pairs;
      "");

  reg "uplevel" (fun t _ args ->
      let args = List.map Value.to_string args in
      let up, script_parts =
        match args with
        | lvl :: rest -> (
          match level_of t lvl with Some up -> (up, rest) | None -> (default_level t, args))
        | [] -> (0, [])
      in
      if script_parts = [] then
        err "wrong # args: should be \"uplevel ?level? command ?arg ...?\"";
      let saved = t.frames in
      t.frames <- drop t.frames up;
      let restore () = t.frames <- saved in
      (match eval_string t (concat script_parts) with
      | v ->
        restore ();
        v
      | exception e ->
        restore ();
        raise e));

  (* a compiled [proc] keeps the command it defined last; on a list, each
     definition is compiled anew *)
  let define t slot name params body body_words =
    define_proc t slot (Value.to_string name) params body body_words;
    Value.empty
  in
  reg "proc"
    ~compile:(fun node name ws ->
      match ws with
      | [ n; p; b ] ->
        let slot = ref None and body_words = [ b ] in
        Some (compile3 (fun t nv pv bv -> define t slot nv pv bv body_words) node name n p b)
      | _ -> None)
    (fun t node args ->
      match args with
      | [ name; params; body ] ->
        define t (ref None) name params body (next_words (next_words (arg_words node)))
      | _ -> err "wrong # args: should be \"proc name args body\"");

  reg "return"
    ~compile:(fun node name ws ->
      match ws with
      | [] -> Some (compile0 (fun _ -> raise (Return_exc Value.empty)) node name [])
      | [ w ] -> Some (compile1 (fun _ v -> raise (Return_exc v)) node name w)
      | _ -> None)
    (fun _ _ args ->
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

  (* eval and uplevel join their words as [concat] does *)
  reg "eval" (fun t _ args ->
      if args = [] then err "wrong # args: should be \"eval arg ?arg ...?\"";
      eval_string t (concat (List.map Value.to_string args)));

  (* Each expression evaluated costs one step, charged before it is
     compiled.  [expr] takes its single argument's slot; several arguments
     are joined into run-time text. *)
  reg "expr"
    ~compile:(fun node name ws ->
      match ws with
      | [ (Ast.Braced _ as w) ] ->
        Some
          (compile1
             (fun t src ->
               charge t 1;
               expr_value t (expr_of t ws src))
             node name w)
      | _ -> None)
    (fun t node args ->
      charge t 1;
      match args with
      | [ src ] -> expr_value t (expr_of t (arg_words node) src)
      | _ ->
        let src = String.concat " " (List.map Value.to_string args) in
        expr_value t (compile_expr t src));

  reg "if" ~compile:compile_if (fun t node args -> if_clauses t (arg_words node) args);

  (* The loops look their condition and body up once per command, not per
     pass; each pass still charges one step for the test. *)
  reg "while" (fun t node args ->
      match args with
      | [ cond; body ] ->
        let ws = arg_words node in
        let cond = expr_of t ws cond in
        let body = script_of t (next_words ws) body in
        let rec loop () =
          if test t cond then begin
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
          if test t cond then begin
            (try ignore (eval_ast t body) with Continue_exc -> ());
            ignore (eval_ast t next);
            loop ()
          end
        in
        (try loop () with Break_exc -> ());
        Value.empty
      | _ -> err "wrong # args: should be \"for start test next command\"");

  reg "foreach" ~compile:(compile_iterate foreach) (fun t node args ->
      iterate_args t ~cmd:"foreach" node args foreach);

  reg_string "array" (fun t args ->
      let find_array name = (lookup (scope t) name).elems in
      match args with
      | [ "exists"; name ] -> Value.of_bool (Option.is_some (find_array name))
      | [ "size"; name ] -> (
        match find_array name with
        | Some arr -> Decimal.of_int (Hashtbl.length arr)
        | None -> "0")
      | [ ("names" | "get") as sub; name ] | [ ("names" | "get") as sub; name; _ ] -> (
        let keep k =
          match args with [ _; _; p ] -> Strutil.glob_match ~pattern:p k | _ -> true
        in
        match find_array name with
        | None -> ""
        | Some arr ->
          let pairs =
            Hashtbl.fold
              (fun k v acc -> if keep k then (k, v) :: acc else acc)
              arr []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          Value.of_list
            (if sub = "names" then List.map fst pairs
             else List.concat_map (fun (k, v) -> [ k; Value.to_string v ]) pairs))
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
      | "commands" :: ([] | [ _ ] as pattern) -> command_names t pattern (fun _ -> true)
      | "procs" :: ([] | [ _ ] as pattern) ->
        command_names t pattern (fun fn -> match fn.kind with Proc _ -> true | _ -> false)
      | [ "body"; name ] -> Value.to_string (proc_def t name).body
      (* the parameter names, without defaults, as Tcl prints them *)
      | [ "args"; name ] -> Value.of_list (Array.to_list (proc_def t name).names)
      | [ "level" ] -> Decimal.of_int (List.length t.frames)
      | _ -> err "unsupported info subcommand")

let install_strings () =
  reg_string "string" (fun _ args ->
      match args with
      | "length" :: [ s ] -> Decimal.of_int (String.length s)
      | "match" :: [ pattern; s ] -> Value.of_bool (Strutil.glob_match ~pattern s)
      | sub :: _ -> err "unsupported string subcommand %S or wrong # args" sub
      | [] -> err "wrong # args: should be \"string subcommand ...\"");

  reg "append" ~compile:(compile_update append) (fun t _ args ->
      match args with
      | name :: parts -> update t name append parts
      | [] -> err "wrong # args: should be \"append varName ?value ...?\"");

  let split s on = Value.of_elements (Strutil.split (Value.to_string s) ~on Value.of_string) in
  let white = " \t\n\r" in
  reg "split"
    ~compile:(fun node name ws ->
      match ws with
      | [ s ] -> Some (compile1 (fun _ s -> split s white) node name s)
      | [ s; on ] -> Some (compile2 (fun _ s on -> split s (Value.to_string on)) node name s on)
      | _ -> None)
    (fun _ _ args ->
      match args with
      | [ s ] -> split s white
      | [ s; on ] -> split s (Value.to_string on)
      | _ -> err "wrong # args: should be \"split string ?splitChars?\"");

  reg_string "join" (fun _ args ->
      match args with
      | [ l ] -> String.concat " " (string_list l)
      | [ l; sep ] -> String.concat sep (string_list l)
      | _ -> err "wrong # args: should be \"join list ?joinString?\"")

let install_lists () =
  reg "list" (fun _ _ args -> Value.of_elements (Array.of_list args));

  let llength l = Value.int (Array.length (list_of l)) in
  reg "llength"
    ~compile:(fun node name ws ->
      match ws with [ l ] -> Some (compile1 (fun _ l -> llength l) node name l) | _ -> None)
    (fun _ _ args ->
      match args with
      | [ l ] -> llength l
      | _ -> err "wrong # args: should be \"llength list\"");

  let lindex l i =
    let items = list_of l in
    let len = Array.length items in
    let i = index_value ~len i in
    if i < 0 || i >= len then Value.empty else items.(i)
  in
  reg "lindex"
    ~compile:(fun node name ws ->
      match ws with
      | [ l ] -> Some (compile1 (fun _ l -> l) node name l)
      | [ l; i ] -> Some (compile2 (fun _ l i -> lindex l i) node name l i)
      | _ -> None)
    (fun _ _ args ->
      match args with
      | [ l ] -> l
      | [ l; i ] -> lindex l i
      | _ -> err "wrong # args: should be \"lindex list ?index?\"");

  reg "lappend" ~compile:(compile_update lappend) (fun t _ args ->
      match args with
      | name :: items -> update t name lappend items
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

  (* lsort ?option ...? list, with the options TScript implements spelled
     out in full; any other option is an error, not a silent ascii sort.
     Every element's key is read before sorting, as Tcl does, so a bad
     element is reported even in a one-element list; -unique keeps the
     last of each run of equal keys. *)
  reg_string "lsort" (fun _ args ->
      let rec opts key order unique = function
        | [ l ] -> (key, order, unique, l)
        | "-ascii" :: rest -> opts `Ascii order unique rest
        | "-integer" :: rest -> opts `Integer order unique rest
        | "-real" :: rest -> opts `Real order unique rest
        | "-increasing" :: rest -> opts key 1 unique rest
        | "-decreasing" :: rest -> opts key (-1) unique rest
        | "-unique" :: rest -> opts key order true rest
        | opt :: _ :: _ ->
          err "bad option \"%s\": must be -ascii, -decreasing, -increasing, -integer, -real, or -unique" opt
        | [] -> err "wrong # args: should be \"lsort ?-option value ...? list\""
      in
      let key, order, unique, l = opts `Ascii 1 false args in
      let sort key_of compare =
        let cmp (a, _) (b, _) = order * compare a b in
        let sorted = List.stable_sort cmp (List.map (fun s -> (key_of s, s)) (string_list l)) in
        let sorted =
          if unique then
            List.fold_left
              (fun acc x -> match acc with y :: _ when cmp x y = 0 -> acc | _ -> x :: acc)
              [] (List.rev sorted)
          else sorted
        in
        Value.of_list (List.map snd sorted)
      in
      match key with
      | `Ascii -> sort Fun.id String.compare
      | `Integer ->
        sort
          (fun s ->
            match Value.int_of s with Some i -> i | None -> err "expected integer but got \"%s\"" s)
          Int.compare
      | `Real ->
        sort
          (fun s ->
            match Value.float_of s with
            | Some f -> f
            | None -> err "expected floating-point number but got \"%s\"" s)
          Float.compare);

  (* an empty list comes back as it was written, as in Tcl *)
  reg_string "lreverse" (fun _ args ->
      match args with
      | [ l ] -> ( match string_list l with [] -> l | items -> Value.of_list (List.rev items))
      | _ -> err "wrong # args: should be \"lreverse list\"");

  reg_string "lassign" (fun t args ->
      match args with
      | l :: names ->
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
      | [] -> err "wrong # args: should be \"lassign list ?varName ...?\"");

  reg_string "concat" (fun _ args -> concat args);

  reg "lmap" ~compile:(compile_iterate lmap) (fun t node args ->
      iterate_args t ~cmd:"lmap" node args lmap)

let () =
  install_core ();
  install_strings ();
  install_lists ()

let create ?step_limit ?caches () =
  let caches = match caches with Some c -> c | None -> create_caches () in
  let uid = fresh_uid caches in
  let t =
    {
      uid;
      cmd_epoch = 0;
      commands = Hashtbl.copy builtins;
      builtin_stamp = builtin_uid;
      global = frame [||] [||] (Some (Hashtbl.create 32)) uid;
      frames = [];
      steps = 0;
      limit = step_limit;
      depth = 0;
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

(* ---- variables, host side: strings at the boundary ----------------------- *)

let set_var t name v = set_var t name (Value.of_string v)
let get_var_opt t name =
  let v = (lookup (scope t) name).v in
  if v == Value.absent then None else Some (Value.to_string v)

let unset_var t name = unset_var t ~complain:false name

(* ---- profiling ---------------------------------------------------------- *)

(* Defined last: the [commands] field name would otherwise shadow the
   interpreter record's own field for the code above. *)
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
