(** Parsed form of a TScript script.

    A script is a list of commands; a command is a list of words; a word is
    a brace-quoted literal (no substitution — how Tcl defers evaluation of
    bodies), a bare or quoted word with nothing to substitute, or a
    sequence of fragments that are substituted and concatenated at
    evaluation time.

    The types are parametric over ['fn], the interpreter's compiled-command
    type: each command node carries its compiled form (see {!command}), and
    parametrising keeps this module free of a dependency on the
    interpreter.  The parser always leaves every slot empty, so parsed
    scripts are polymorphic in ['fn]. *)

type 'fn fragment =
  | Lit of string        (** literal text *)
  | Var of Value.var_ref (** [$name] or [${name}], with its cell cache *)
  | VarElem of string * 'fn fragment list
      (** [$name(index)] — a Tcl array element; the index is itself a
          fragment sequence, so [$a($i)] works *)
  | Cmd of 'fn script    (** [\[...\]] command substitution *)

and 'fn word =
  | Braced of 'fn braced (** [{...}]: verbatim, one word *)
  | Literal of Value.t
      (** a bare or quoted word with nothing to substitute: its value,
          whose cached forms live on the AST like a braced word's *)
  | Frags of 'fn fragment list

(** A braced word and its compile slots.  Builtins that take a script or
    an expression argument ([if], [while], [proc], [expr {...}] ...) fill
    the slot on first use and reuse it afterwards, so a body is compiled
    once per shared AST rather than looked up by source text on every
    evaluation.  A compiled expression carries slots of its own, one per
    [\[...\]] command substitution ({!Expr.cmd}).  The interpreter counts
    a slot reuse as a cache hit: a "hit" means a compile avoided,
    whichever layer served it.  Slots are mutable state on an AST shared
    by the interpreters of one simulation. *)
and 'fn braced = {
  value : Value.t;                           (** the verbatim contents *)
  mutable script : 'fn script option;        (** parsed as a script, once *)
  mutable expr : 'fn script Expr.ast option; (** compiled as an expression, once *)
}

and 'fn command = {
  words : 'fn word list;
  mutable code : 'fn option;
      (** the command compiled, on its first execution, by the interpreter
          that ran it.  The interpreters sharing the AST share it, so it
          captures no interpreter and checks, each time it runs, that what
          it was specialised for still holds in the one running it. *)
}

and 'fn script = 'fn command list

val braced : Value.t -> 'fn word
(** A braced word with empty compile slots. *)

val command : 'fn word list -> 'fn command
(** Build a command node, not compiled yet. *)
