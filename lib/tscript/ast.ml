(* The AST is parametric over the interpreter's compiled-command type so
   each command node can carry its compiled form (the interpreter
   instantiates ['fn] with its own closure type; the parser never touches
   the slot).  See {!command}. *)

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
   the nested script's compiled commands validate per interpreter. *)
and 'fn braced = {
  value : Value.t;
  mutable script : 'fn script option;
  mutable expr : 'fn script Expr.ast option;
}

and 'fn command = {
  words : 'fn word list;
  (* the compiled form, made on the node's first execution and shared by
     every interpreter that runs the node; it validates itself against the
     evaluating interpreter *)
  mutable code : 'fn option;
}

and 'fn script = 'fn command list

let braced value = Braced { value; script = None; expr = None }
let command words = { words; code = None }
