(** Folders (paper §2): "a list of elements, each of which is an
    uninterpreted sequence of bits.  Because it is a list, it can be treated
    as a stack or a queue."

    Unlike files, folders must be cheap to move between sites, so the
    representation is a plain list with no index structures; {!Cabinet}
    folders trade that mobility for indexed access. *)

type t

val create : unit -> t
val of_list : string list -> t
val to_list : t -> string list
(** Head (stack top / queue front) first. *)

val copy : t -> t
val length : t -> int
val is_empty : t -> bool

(** {1 Stack discipline} *)

val push : t -> string -> unit
(** Add at the head. *)

val pop : t -> string option
(** Remove from the head. *)

val peek : t -> string option

val first : t -> string
(** [peek] without the option.  @raise Not_found when empty. *)

(** {1 Queue discipline} *)

val enqueue : t -> string -> unit
(** Add at the tail. *)

val dequeue : t -> string option
(** Remove from the head (same end [pop] uses). *)

(** {1 Whole-folder operations} *)

val clear : t -> unit
val replace : t -> string list -> unit

val nth_opt : t -> int -> string option
(** Stdlib naming convention shared with {!Briefcase} and {!Cabinet}:
    [*_opt] returns an option. *)

val nth : t -> int -> string option
  [@@deprecated "use Folder.nth_opt (same behaviour); nth goes away next release"]

val contains : t -> string -> bool
(** Linear scan — folders are unindexed by design. *)

val iter : (string -> unit) -> t -> unit
val fold : ('a -> string -> 'a) -> 'a -> t -> 'a

val byte_size : t -> int
(** Sum of element sizes; the basis of transfer-cost accounting. *)
