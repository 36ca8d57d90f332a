(** Running statistics for experiment reporting. *)

type t
(** A running accumulator of integer samples: count, total, Welford's
    mean and variance, minimum and maximum, all as floats. No sample is
    kept, and [add] allocates nothing. *)

val create : unit -> t

val add : t -> int -> unit

val count : t -> int

val total : t -> float
(** The samples' sum, accumulated in [add] order. *)

val mean : t -> float
(** 0.0 when empty. *)

val stddev : t -> float
(** Sample standard deviation; 0.0 with fewer than two samples. *)

val min_value : t -> float
(** [nan] when empty. *)

val max_value : t -> float
(** [nan] when empty. *)
