(** Length-prefixed binary encoding for briefcases on the wire.

    Folders are "uninterpreted sequences of bits", so the codec must be
    8-bit clean; and briefcases are moved constantly, so the format is a
    flat sequence of length-prefixed strings with no index structure
    (paper §2: "elaborate index structures are not suitable").

    Every length and count is a 4-byte big-endian unsigned integer.  The
    encoder writes into a buffer its caller sized exactly (sizes are known
    up front from {!encoded_size}), so encoding is one pass with no
    resizing.  The decoder raises {!Malformed} on any input the encoder
    cannot produce, never an OCaml runtime exception. *)

exception Malformed of string

(** {1 Encoding}

    Each [put_*] writes at the given offset and returns the offset just
    past what it wrote.  The buffer must have room: sizes come from
    {!encoded_size}. *)

val put_u32 : Bytes.t -> int -> int -> int
(** @raise Malformed on a negative value or one above [0xFFFF_FFFF]. *)

val put_string : Bytes.t -> int -> string -> int
(** 4-byte length, then the bytes. *)

val put_strings : Bytes.t -> int -> string list -> int
(** 4-byte count, then each string. *)

(** {1 Decoding} *)

type reader

val reader : string -> reader

val read_u32 : reader -> int
val read_string : reader -> string
(** @raise Malformed on truncated input. *)

val read_strings : reader -> string list
val at_end : reader -> bool

val encoded_size : string -> int
(** Wire size of one encoded string. *)
