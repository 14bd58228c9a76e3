(** String helpers for the TScript builtin commands. *)

val glob_match : pattern:string -> string -> bool
(** Tcl [string match]: [*] any run, [?] any one char, [\[a-z\]] classes,
    backslash escapes the next character. *)

val format : string -> string list -> (string, string) result
(** A subset of Tcl [format]: [%s %d %i %f %e %g %x %X %o %c %%] with
    optional [-] flag, [0] flag, width and precision. *)

val split : string -> on:string -> string list
(** Split at any character present in [on]; [on = ""] splits into
    characters.  Adjacent separators produce empty fields and the empty
    string splits into the empty list (Tcl semantics). *)

