(** String helpers for the TScript builtin commands. *)

val glob_match : pattern:string -> string -> bool
(** Tcl [string match], byte for byte: [*] any run, [?] any one char,
    [\[abc\]] and [\[a-z\]] classes (no negation, no escapes inside),
    backslash escapes the next character. *)

val split : string -> on:string -> (string -> 'a) -> 'a array
(** [split s ~on f] splits [s] at any character present in [on] and gives
    [f] of each field, in order; [on = ""] splits into characters.
    Adjacent separators produce empty fields and the empty string splits
    into no fields (Tcl semantics).  The array is built directly, with no
    list in between. *)

