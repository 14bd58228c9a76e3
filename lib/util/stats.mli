(** Small numerical summaries used by experiment harnesses. *)

val mean : float list -> float
(** Mean; 0.0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0.0 on lists shorter than 2. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank on the sorted
    data; 0.0 on the empty list. *)

val sum : float list -> float
