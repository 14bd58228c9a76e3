(** String helpers for the TScript builtin commands. *)

val glob_match : pattern:string -> string -> bool
(** Tcl [string match]: [*] any run, [?] any one char, [\[a-z\]] classes,
    backslash escapes the next character. *)

val format : string -> string list -> (string, string) result
(** A subset of Tcl [format]: [%s %d %i %f %e %g %x %X %o %c %%] with
    optional [-] flag, [0] flag, width and precision. *)

val split : string -> on:string -> (string -> 'a) -> 'a array
(** [split s ~on f] splits [s] at any character present in [on] and gives
    [f] of each field, in order; [on = ""] splits into characters.
    Adjacent separators produce empty fields and the empty string splits
    into no fields (Tcl semantics).  The array is built directly, with no
    list in between. *)

