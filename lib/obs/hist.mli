(** Fixed-bucket histogram with exact count/sum/min/max and interpolated
    percentiles — the measurement primitive behind hop latencies, queue
    waits and interpreter step distributions.

    Sum, min and max are held unboxed, so {!observe} allocates nothing;
    it is inlined where the build inlines across modules, so a caller's
    float is not boxed to pass it. *)

type t

val create : ?bounds:float array -> unit -> t
(** [bounds] are the strictly-increasing upper bounds of the finite
    buckets; an implicit overflow bucket catches the rest.  The default is
    exponential from 1e-6 to ~1e7 (factor 4), which spans microsecond link
    waits to multi-day simulated runs.  Raises [Invalid_argument] when
    bounds are not strictly increasing. *)

val observe : t -> float -> unit
(** Counts [x] in the first bucket whose upper bound admits it
    ([x <= bound]); NaN and values past the last bound go to the overflow
    bucket.  NaN makes the sum NaN and leaves min and max as they were. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
(** 0 when empty. *)

val max_value : t -> float
(** 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0..100]: the nearest-rank value, linearly
    interpolated inside its bucket.  Clamped to the observed [min]/[max],
    so [percentile t 0 = min] and [percentile t 100 = max].  0 when
    empty. *)

val buckets : t -> (float * int) list
(** [(upper_bound, count)] per finite bucket, plus [(infinity, n)] for the
    overflow bucket; only non-empty buckets are listed. *)
