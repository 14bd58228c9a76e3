(* The AST is parametric over the interpreter's command-function type so
   each command node can carry a monomorphic inline cache (the interpreter
   instantiates ['fn] with its own function type; the parser never touches
   the slot).  See {!command} for the cache discipline. *)

type 'fn fragment =
  | Lit of string
  | Var of Value.var_ref
  | VarElem of string * 'fn fragment list
  | Cmd of 'fn script

and 'fn word = Braced of 'fn braced | Literal of Value.t | Frags of 'fn fragment list

(* Compile slots: a braced word's text never changes, so its parse, its
   compiled expression and its value's cached forms are pure functions of
   it and can live on the node (the expression's own command substitutions
   carry slots of the same kind; a [Literal] word's value caches the same
   way).  Cached ASTs are shared between interpreters; that is safe because
   the nested script's own inline caches validate per interpreter. *)
and 'fn braced = {
  value : Value.t;
  mutable script : 'fn script option;
  mutable expr : 'fn script Expr.ast option;
}

and 'fn command = {
  words : 'fn word list;
  (* Inline command cache: the resolved command function, valid only for
     the interpreter [c_id] while its command table is at [c_epoch].
     Cached ASTs are shared between interpreters, so both stamps are
     checked before the slot is trusted. *)
  mutable c_id : int;
  mutable c_epoch : int;
  mutable c_fn : 'fn option;
  (* the variable references of the literal names a command takes as
     arguments ([set x], [foreach {k v}]), filled by the command *)
  mutable c_vars : Value.var_ref array;
}

and 'fn script = 'fn command list

let braced value = Braced { value; script = None; expr = None }
let command words = { words; c_id = -1; c_epoch = -1; c_fn = None; c_vars = [||] }
