(** Decimal text of ints without printf.

    Folders hold strings, so every protocol integer (a load, a hop number,
    a job or reply id) crosses a briefcase as decimal text.  [of_int] is
    [string_of_int] without the format interpreter: ints in [\[0, 1024)]
    share one string each, and every other int is written digit by digit
    into one fresh string. *)

val of_int : int -> string
(** [of_int n = string_of_int n] for every [n], [min_int] included. *)

val length : int -> int
(** The length of [of_int n]. *)

val write : Bytes.t -> int -> int -> unit
(** [write b last n] writes [of_int n] into [b] so that its last character
    lands at [b.[last]], for callers that put several numbers into one
    buffer.  [b] must hold [length n] bytes ending at [last]; this is not
    checked. *)
