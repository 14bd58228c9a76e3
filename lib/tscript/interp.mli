(** The TScript interpreter.

    One interpreter instance is the "place where agents execute" of the
    paper (§6): each simulated site runs one.  Agent code arrives as source
    text (in a CODE folder), is parsed here, and runs against the commands
    the host has registered — the TACOMA primitives ([meet], folder access,
    migration) are host commands, not language features, exactly as in the
    Tcl prototype.

    Resource metering: every command execution consumes one step; when the
    step budget is exhausted the run aborts with {!Resource_exhausted},
    which deliberately cannot be caught by the script's own [catch] — this
    is the enforcement hook for the paper's §3 observation that charging
    for service limits the damage a run-away agent can do. *)

type t

exception Error_exc of string
(** A script-level error ([error], bad arguments, unknown command...).
    Caught by the script's [catch] and by {!eval}. *)

exception Break_exc
exception Continue_exc
(** Control-flow signals; leaking past their construct is an error. *)

exception Resource_exhausted
(** Step budget used up.  Not catchable from inside the script. *)

(** {1 Compile caches}

    Each command of a parsed script is compiled on its first execution
    into a closure kept on its node ({!Ast.command}), which later runs
    reuse.  The words of a command are compiled to evaluators: a literal
    is its value, [$x] a read through the variable's cached cell, [\[...\]]
    a run of the nested script.  [set] and [incr] with a literal variable
    name, single-argument [expr {...}], [if]/[elseif]/[else] whose words
    are all literal, [foreach] and [lmap] with literal variable lists,
    [append], [lappend], [lindex], [llength], [split], [return] and [proc]
    run as closures that take their words' values directly, without an
    argument list.  A call by a literal name that no builtin has binds its
    words straight into the called proc's frame.  These specialised
    closures run only in an interpreter that has every builtin; in one
    that has redefined or removed a builtin name, they hand the values
    they evaluated to whatever command has the name there.  Any other
    command (a name built at run time, another builtin, or a shape the
    closures do not handle, malformed ones included) evaluates its words
    into a list, resolves its name and runs the command's one
    implementation.  Every form charges the command's step before its
    words are evaluated, evaluates them left to right, and resolves the
    name after them.

    Each literal braced word keeps its own parse and compiled expression
    ({!Ast.braced}), and each [\[...\]] inside a compiled expression
    keeps its parsed script ({!Expr.cmd}).  The builtins that take a
    script or expression argument — [if]/[elseif]/[else], [while], [for],
    [foreach], [lmap], [catch], single-argument [expr] and the body of a
    [proc] — use that slot when the argument is such a word.  Behind the
    slots is one bounded LRU of parsed scripts keyed by source text.  It
    serves the top-level script (an agent's CODE, the prelude), script
    text built at run time ([if $c $b], [eval], [uplevel]) and each
    slot's first fill.  Expression text built at run time ([if $c ...],
    multi-argument [expr]) is compiled anew.

    A [caches] value can be shared between interpreter instances: the
    kernel creates one per simulation and threads it through every
    per-activation interpreter, so an agent's code is parsed and compiled
    once per simulation, not once per activation.

    A cache {e hit} in {!profile} means a compile avoided, whichever layer
    served it: a slot reuse counts as a hit exactly where an LRU lookup
    would have been made, so the parse counters do not depend on the slots
    or on the compiled forms.

    Sharing is only safe {e within} one simulation.  A [caches] value and
    the ASTs it holds are mutable (LRU state, compiled commands with their
    name resolutions and proc definitions, compile slots, the cached int
    and list forms of literal words, the interpreter-uid fountain), so
    they must never be shared across simulations running concurrently on
    a {!Tacoma_util.Pool} — each pool task creates its own kernel and
    therefore its own caches. *)

type caches

val create_caches : unit -> caches
(** A parse cache of 512 entries; least-recently-used entries are evicted
    one at a time when the bound is exceeded. *)

val create : ?step_limit:int -> ?caches:caches -> unit -> t
(** [step_limit] defaults to unlimited; proc calls nest at most 256 deep.
    [caches] defaults to a fresh private pair — pass a
    shared value to reuse compiled code across interpreters.  The standard
    command set is pre-installed. *)

(** {1 Evaluation} *)

val eval : t -> string -> (string, string) result
(** Evaluate a script; [Ok result-of-last-command] or [Error message].
    [return] at top level yields its value.  {!Resource_exhausted} is NOT
    caught here — the host decides what an aborted agent means. *)

val call : t -> string -> string list -> string
(** [call t cmd args] invokes a command or proc directly from the host.
    @raise Error_exc on script errors. *)

(** {1 Host commands} *)

(** What a host command returns: a string, or a list given as its items. *)
type reply =
  | Text of string
  | Items of string list
      (** handed to the script as a list value holding the items: a
          [foreach] or [lindex] over it reads them without parsing, and
          its string, [Value.of_list items] byte for byte, is rendered
          only if the script asks for it *)

val register : t -> string -> (t -> string list -> reply) -> unit
(** Host commands see their arguments as strings ({!Value}): the
    interpreter's cached int and list forms of an argument stop at this
    boundary, and only a list reply ({!Items}) crosses it back as a list.
    They may raise {!Error_exc} to signal script-visible errors.
    Registering over an existing name replaces it; over a proc, it also
    ends the proc's [info procs]/[info body]/[info args] entries. *)

val unregister : t -> string -> unit

(** {1 Variables (global scope)} *)

val set_var : t -> string -> string -> unit
val get_var_opt : t -> string -> string option
val unset_var : t -> string -> unit

(** {1 Output}

    [puts] appends to an internal buffer by default; hosts can redirect. *)

val set_output : t -> (string -> unit) -> unit
val take_output : t -> string
(** Return and clear the buffered output. *)

(** {1 Metering} *)

val steps_used : t -> int
val step_limit : t -> int option

val charge : t -> int -> unit
(** Host commands use this to bill extra steps for expensive operations.
    @raise Resource_exhausted when the budget runs out. *)

(** {1 Profiling}

    Cheap always-on counters, read after a run by the kernel's flight
    recorder ({!steps_used} is the billing view; these are the shape). *)

type profile = {
  commands : int;   (** command executions (same granularity as steps) *)
  proc_calls : int; (** user proc invocations *)
  max_depth : int;  (** deepest proc nesting reached *)
  parse_hits : int; (** script parses avoided (LRU or slot) by this interpreter *)
  parse_misses : int;      (** scripts parsed (cache misses) *)
  parse_evictions : int;   (** parse-cache evictions this interpreter caused *)
  expr_hits : int;         (** expression compilations avoided (slot reuses) *)
  expr_misses : int;       (** expressions this interpreter compiled *)
}

val profile : t -> profile
