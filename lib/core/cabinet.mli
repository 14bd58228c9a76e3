(** File cabinets (paper §2): groups of site-local folders.

    "File cabinets support the same operations as briefcases, but ... since
    it is rare to move a file cabinet from site to site, file cabinets can
    be implemented using techniques that optimize access times even if this
    increases the cost of moving."

    Concretely, every cabinet folder carries a hash index over its elements
    (so [contains] is O(1) where {!Folder.contains} is a scan), plus a
    key-value view for record-style use.  Cabinets also model the paper's
    persistence remark — "file cabinets can be flushed to disk when
    permanence is required": {!flush} checkpoints current contents, and
    after a site crash the kernel rebuilds the place's cabinet from the
    last checkpoint only. *)

type t

val create : unit -> t

(** {1 Folder operations (briefcase-compatible)} *)

val put : t -> string -> string -> unit
(** Append an element to the named folder (created on demand). *)

val push : t -> string -> string -> unit
val pop : t -> string -> string option
val peek : t -> string -> string option

val find_opt : t -> string -> string option
(** Head element of the named folder ([peek] under the stdlib naming
    convention shared with {!Briefcase} and {!Folder}: [find_opt] returns
    an option, [get] raises). *)

val get : t -> string -> string
(** @raise Not_found when the folder is absent or empty. *)

val elements : t -> string -> string list
val replace : t -> string -> string list -> unit
val folder_names : t -> string list
val folder_exists : t -> string -> bool
val size : t -> string -> int

val contains : t -> string -> string -> bool
(** [contains t fname elem] — O(1) via the folder's index. *)

val remove_element : t -> string -> string -> unit
(** Remove all occurrences of an element from the folder. *)

(** {1 Record (key/value) view}

    Elements of the form [key=value]; [set_kv] replaces the binding. *)

val set_kv : t -> string -> key:string -> string -> unit
val find_kv_opt : t -> string -> key:string -> string option
val remove_kv : t -> string -> key:string -> unit
val kv_bindings : t -> string -> (string * string) list

(** {1 Persistence} *)

val flush : t -> unit
(** Checkpoint everything to the (simulated) disk image. *)

val flush_folder : t -> string -> unit

val recover : t -> t
(** The cabinet as rebuilt after a crash: last checkpoint only.  The
    returned cabinet's disk image equals its contents. *)

val byte_size : t -> int
(** In-memory contents size (sum of element bytes). *)
