(** The [expr] sublanguage: arithmetic, comparison, boolean and ternary
    expressions.

    Like Tcl, [expr] performs its own [$var] and [\[cmd\]] substitution —
    that is why [if {$x > 0} ...] works even though braces suppress
    substitution — so evaluation takes the two substitution callbacks from
    the interpreter.

    Compilation is split from evaluation: {!compile} does the lexing and
    parsing once, producing an {!ast} whose variable and command references
    stay late-bound; {!eval_ast} walks it against the current scope.  The
    interpreter keeps a compiled expression in the compile slot of the
    braced word it came from, so loop conditions and [expr] bodies pay the
    parser only once.

    [&&], [||] and [?:] are lazy: the skipped operand is never evaluated,
    so a side-effecting [\[cmd\]] in the untaken arm does not run. *)

exception Error of string

type num = Int of int | Float of float | Str of Value.t

type 'script ast
(** A compiled expression.  Each [\[...\]] command substitution in it is a
    {!cmd} node carrying a compile slot for its parsed script, of the
    interpreter's script type ['script].  The slots are mutable: like
    {!Ast}, a compiled expression may be shared between the interpreters
    of one simulation, but not across simulations running concurrently. *)

and 'script cmd = {
  text : string;                   (** the source between the brackets *)
  mutable script : 'script option; (** parsed by [eval_cmd], once *)
}

val compile : string -> 'script ast
(** Lex and parse an expression source once.  Unknown functions and arity
    mistakes are rejected here, at compile time.
    @raise Error on syntax errors. *)

type 'script env = {
  var : Value.var_ref -> Value.t;
      (** [$name], or [$name(index)] as ["name(raw index)"], whose index
          the interpreter substitutes in the caller's scope *)
  cmd : 'script cmd -> Value.t;  (** a command substitution; fills its slot *)
}
(** The interpreter's substitution callbacks.  Each variable reference in
    a compiled expression is a {!Value.var_ref} with its cell cache. *)

val eval_ast : 'script env -> 'script ast -> Value.t
(** Evaluate a compiled expression.  An integer result is an int value
    ({!Value.int}); an operand passed through unchanged ([$x], [min],
    [?:]) is returned as it is.
    @raise Error on type errors (caught by the interpreter and turned into
    a script-level error). *)

val eval_ast_bool : 'script env -> 'script ast -> bool
(** Truth-value fast path: skips rendering the result to a string —
    the common case for [if]/[while]/[for] conditions. *)
