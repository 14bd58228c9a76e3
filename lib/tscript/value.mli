(** TScript values.

    Like Tcl — the language the TACOMA prototype used — every value is a
    string; lists and numbers are interpretations.  This is what makes
    folders work: a folder element is an uninterpreted byte string, and an
    agent's code, its data, even a whole serialised agent (paper §4:
    brokers store agents inside folders) are all just strings.

    Inside the interpreter a value ({!t}) is that string plus at most one
    cached int or list form of it, as in Tcl 8's dual-ported objects.  The
    string is the value: the int and list forms are caches of it, filled on
    first use, and a value built from an int or a list renders its string
    on first use, byte for byte what [Tacoma_util.Decimal.of_int] or
    {!of_list} would write.  Everything outside the interpreter sees only strings. *)

val int_of : string -> int option
val float_of : string -> float option

val truthy : string -> bool
(** Tcl boolean: "0"/""/"false"/"no"/"off" are false, numeric zero is false,
    everything else is true. *)

val of_bool : bool -> string
val of_float : float -> string
(** Renders integral floats without a trailing ["."]; uses shortest
    round-trip formatting otherwise. *)

(** {1 Tcl-style lists}

    A list is a string of white-space-separated elements; elements containing
    special characters are brace-quoted or backslash-escaped by Tcl 8.6's
    rule.  [to_list] and [of_list] are inverses for all element values. *)

val of_list : string list -> string

val to_list : string -> (string list, string) result
(** Errors, with Tcl's messages, on an unmatched brace or quote and on a
    closing brace or quote followed by anything but a space.  Bare and
    quoted elements decode backslash sequences as {!backslash} does.
    Interpreter commands turn the error into a script error. *)

val to_list_exn : string -> string list
(** For OCaml callers whose lists are well-formed by construction.
    @raise Invalid_argument on malformed lists. *)

val backslash : string -> int -> char * int
(** [backslash s i] decodes the backslash sequence whose backslash is at
    [i - 1]: the character it stands for and the index after it.  Decodes
    [\n \t \r \f \v], [\xh]/[\xhh] and one to three octal digits as Tcl 8.6
    does; any other character stands for itself. *)

(** {1 Interpreter values} *)

type t
(** Immutable in meaning: only the caches of a value fill in, so a value
    may be shared by variables, lists and parsed scripts alike.  The caches
    are mutable all the same, so a value must not be shared between
    simulations running concurrently. *)

val of_string : string -> t
val to_string : t -> string

val int : int -> t
(** A value made from an int; its string is [Tacoma_util.Decimal.of_int i]. *)

val empty : t

val of_elements : t array -> t
(** A list value; its string is [of_list] of the elements' strings.  The
    array is owned by the value and must not be modified. *)

val to_int : t -> int option
(** [int_of] of the string, cached. *)

exception Not_int
(** What {!to_int_exn} raises for a value that is no integer. *)

val to_int_exn : t -> int
(** {!to_int} without the option, for paths that must not allocate: an
    integer value, or a string whose int form is cached, is read with no
    allocation at all.
    @raise Not_int (without a backtrace) when the value is no integer. *)

exception Bad_list of string
(** A malformed list, with Tcl's message: what {!elements} raises. *)

val elements : t -> t array
(** [to_list] of the string, cached.  The array is shared with the value
    and must not be modified.  The reader counts the elements first and
    then fills an array of that size, so it builds no list.
    @raise Bad_list on a malformed list, where {!to_list} gives [Error]. *)

(** {1 Variables}

    A variable is a mutable cell; a scope maps names to cells.  A literal
    reference to a variable caches the cell it last resolved to, stamped
    with the scope it resolved in. *)

type cell = {
  mutable v : t;  (** the scalar value, or {!absent} *)
  mutable elems : (string, t) Hashtbl.t option;  (** an array's elements *)
  home : int;  (** the stamp of the scope that made the cell *)
}
(** Unset when [v == absent] and [elems = None].  Unset keeps the cell, so
    a cached cell never goes stale. *)

type var_ref = { name : string; mutable stamp : int; mutable cell : cell }

val absent : t
val cell : int -> t -> cell
val var_ref : string -> var_ref

val nowhere : cell
(** The unset cell of no scope, never written: an empty reference's cell,
    and what looking up a missing name gives. *)
