(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that runs are reproducible from a single seed, and
    independent streams can be split off for sub-components without
    perturbing each other. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t] once. *)

val stream : seed:int -> int -> t
(** [stream ~seed i] is the [i]-th generator of the family rooted at
    [seed] — a stateless derivation, so stream [i] is a pure function of
    [(seed, i)] and never of any other stream's draws. The engine gives
    each PE its own stream, which is what makes per-PE scheduling
    randomness independent of how the PEs are grouped into shards. *)

val copy : t -> t

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Raises [Invalid_argument] if
    [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p], the same draw, without boxing
    the float: true with probability [p]. *)

val bool : t -> bool

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. O(n). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success in
    Bernoulli(p) trials; mean (1-p)/p. Raises if [p] outside (0, 1]. *)
