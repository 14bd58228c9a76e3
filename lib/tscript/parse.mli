(** Recursive-descent parser from script source to {!Ast.script}.

    Grammar (a faithful subset of Tcl's dodekalogue):
    - commands are separated by newlines or [;];
    - a [#] at command position starts a comment to end of line;
    - words are separated by spaces/tabs and are brace-quoted literals,
      double-quoted fragment strings, or bare fragment strings;
    - [$name], [${name}] and [\[script\]] substitute inside quotes and bare
      words but not inside braces;
    - outside braces a backslash sequence stands for one character
      ({!Value.backslash}: [\n \t \r \f \v], hex and octal codes, any
      other character itself) and backslash-newline is a line continuation
      that becomes a space. *)

exception Syntax_error of string

val script : string -> 'fn Ast.script
(** @raise Syntax_error on unbalanced constructs.  The result carries
    empty inline-cache slots, hence the polymorphism. *)

val script_result : string -> ('fn Ast.script, string) result

val fragments : string -> 'fn Ast.fragment list
(** Parse a whole string as substitution fragments (no word splitting, no
    command terminators), as the index of an array reference in [expr]
    is substituted.
    @raise Syntax_error on unbalanced constructs. *)
