(* The AST is parametric over the interpreter's command-function type so
   each command node can carry a monomorphic inline cache (the interpreter
   instantiates ['fn] with its own function type; the parser never touches
   the slot).  See {!command} for the cache discipline. *)

type 'fn fragment =
  | Lit of string
  | Var of string
  | VarElem of string * 'fn fragment list
  | Cmd of 'fn script

and 'fn word = Braced of 'fn braced | Frags of 'fn fragment list

(* Compile slots: a braced word's text never changes, so its parse and its
   compiled expression are pure functions of it and can live on the node.
   Cached ASTs are shared between interpreters; that is safe because the
   nested script's own inline caches validate per interpreter. *)
and 'fn braced = {
  text : string;
  mutable script : 'fn script option;
  mutable expr : Expr.ast option;
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
}

and 'fn script = 'fn command list

let braced text = Braced { text; script = None; expr = None }
let command words = { words; c_id = -1; c_epoch = -1; c_fn = None }

let rec pp_fragment fmt = function
  | Lit s -> Format.fprintf fmt "Lit(%S)" s
  | Var v -> Format.fprintf fmt "Var(%s)" v
  | VarElem (v, idx) ->
    Format.fprintf fmt "VarElem(%s, [%a])" v
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp_fragment)
      idx
  | Cmd s -> Format.fprintf fmt "Cmd(%a)" pp_script s

and pp_word fmt = function
  | Braced b -> Format.fprintf fmt "Braced(%S)" b.text
  | Frags fs ->
    Format.fprintf fmt "Frags[%a]"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp_fragment)
      fs

and pp_command fmt cmd =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ") pp_word)
    cmd.words

and pp_script fmt script =
  Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp_command fmt script
