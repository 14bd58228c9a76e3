(** TScript values.

    Like Tcl — the language the TACOMA prototype used — every value is a
    string; lists and numbers are interpretations.  This is what makes
    folders work: a folder element is an uninterpreted byte string, and an
    agent's code, its data, even a whole serialised agent (paper §4:
    brokers store agents inside folders) are all just strings. *)

val int_of : string -> int option
val float_of : string -> float option

val truthy : string -> bool
(** Tcl boolean: "0"/""/"false"/"no"/"off" are false, numeric zero is false,
    everything else is true. *)

val of_bool : bool -> string
val of_int : int -> string
val of_float : float -> string
(** Renders integral floats without a trailing ["."]; uses shortest
    round-trip formatting otherwise. *)

(** {1 Tcl-style lists}

    A list is a string of whitespace-separated elements; elements containing
    special characters are brace-quoted.  [to_list] and [of_list] are
    inverses for all element values. *)

val of_list : string list -> string

val to_list : string -> (string list, string) result
(** Errors, with Tcl's messages, on an unmatched brace or quote and on a
    closing brace or quote followed by anything but a space.  Interpreter
    commands turn the error into a script error. *)

val to_list_exn : string -> string list
(** For OCaml callers whose lists are well-formed by construction.
    @raise Invalid_argument on malformed lists. *)
