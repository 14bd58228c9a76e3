(** Per-site content-addressed code cache (the Gavalas-style migration
    optimisation).

    TACOMA migration is restart-style: the CODE folder travels on every
    [rexec] hop, so an n-hop journey pays the code transfer n times even
    when it revisits sites.  With a cache installed
    ([Kernel.config.cache = Some _]), the sender replaces the CODE folder's
    payload on the wire with its content digest and publishes the entry in
    its own site's cache; the receiving place resolves the digest from its
    cache (a {e hit}: no code bytes moved), or pays one extra simulated
    round trip to fetch the code from the sending site (a {e miss}), then
    installs the entry for the next visitor.

    Each cache remembers the code it last resolved or installed, with its
    digest.  A warm hop, where the agent leaves a site carrying the code
    that site just resolved for it, reuses that digest ([digest_at]); only
    the first hop from a site that has not seen the code hashes it.  The
    check compares content, so an agent that rewrites its CODE gets a fresh
    digest.

    Caches are {e volatile}: a site crash drops the cache with the rest of
    the kernel's place, and the restarted site starts from an empty one, so
    agents arriving after a restart — guard relaunches included — re-fetch
    correctly rather than resolving against state the crash destroyed.

    Entries are evicted least-recently-used to keep each site under a byte
    budget.  An entry larger than the whole budget is uncacheable: the
    kernel then ships the code in full, exactly as without a cache. *)

type config = {
  budget_bytes : int;  (** per-site LRU byte budget over cached code bytes *)
  fetch_timeout : float;
      (** seconds before a pending fetch attempt expires *)
}

val default_config : config
(** 256 KiB budget, 10 s timeout. *)

(** {2 Fetch protocol constants}

    The wire costs and retry bound of a miss are fixed terms of the
    model, the same for every cache. *)

val request_bytes : int
(** 96: simulated wire size of a fetch request. *)

val reply_overhead_bytes : int
(** 32: framing added to the code bytes on a fetch reply. *)

val fetch_attempts : int
(** 2: bounded retry.  Total request transmissions (each re-paying
    [request_bytes] and waiting [fetch_timeout]) before the fetch is
    abandoned and the delayed activation dies (class ["code-fetch"]).
    Retries are counted under [codecache.fetch_retries]; only the final
    failure counts under [codecache.fetch_failures]. *)

type t
(** One cache per place.  Purely local bookkeeping: no RNG draws, no
    scheduling — cache operations never perturb the simulation clock. *)

val create : ?on_evict:(digest:string -> bytes:int -> unit) -> config -> t
(** [on_evict] is called once per evicted entry (the kernel feeds the
    flight recorder's eviction counter with it). *)

val digest : string list -> string
(** Content address of a CODE folder: lowercase-hex SHA-256 over the
    canonical (length-prefixed) encoding of the element list.  Two folders
    with the same elements in the same order share an address. *)

val digest_at : t -> string list -> string
(** [digest_at t elems] equals [digest elems].  When [elems] is element-wise
    equal to the list [t] last resolved ([find_opt] hit) or installed
    ([insert]), it returns the remembered digest without hashing. *)

val insert : t -> digest:string -> string list -> bool
(** Install (or refresh) an entry, evicting least-recently-used entries as
    needed.  Returns [false] — and caches nothing — when the entry alone
    exceeds the budget. *)

val find_opt : t -> digest:string -> string list option
(** Resolve a digest, refreshing its recency.  [None] on a miss. *)

val mem : t -> digest:string -> bool
(** Membership without refreshing recency. *)

val bytes_used : t -> int
val entry_count : t -> int

val digests : t -> string list
(** Most-recently-used first — the reverse of eviction order. *)

val wire_bytes : string list -> int
(** Encoded size of the element list as a briefcase folder body ships it;
    the basis of the bytes-saved accounting. *)
