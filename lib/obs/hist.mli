(** Zero-allocation log-bucketed latency histogram (HDR-style).

    Integer samples land in a fixed 1024-slot bucket array: values
    0..15 are exact, and each power-of-two range above is split into
    16 sub-buckets, bounding relative error by 1/16 at any magnitude.
    [add] allocates nothing, so histograms can sit on the simulator
    hot path; [absorb] merges a shard's histogram into another (and
    clears the source), which is associative and order-independent, so
    per-PE histograms merge to the same totals at any shard count. *)

type t

val create : unit -> t

val clear : t -> unit

(** [add t v] records one sample. Negative values clamp to 0. *)
val add : t -> int -> unit

val count : t -> int

val max_value : t -> int

(** Mean of all recorded samples ([0.0] when empty). *)
val mean : t -> float

(** [percentile t p] is the nearest-rank percentile for [p] in
    [0..100]: the bucket lower bound of the sample at rank
    [ceil (p/100 * count)] — exact for values below 32, within 1/16
    above, and never exceeding [max_value t]. [0] when empty. *)
val percentile : t -> float -> int

(** [absorb ~into src] adds every nonzero bucket of [src] into [into]
    and clears [src] — O(buckets actually touched), not O(array size):
    both sides track their dirty bucket set, so per-shard sinks merge
    and re-zero at the step barrier in time proportional to the step's
    samples. Merging is associative: any grouping of shard histograms
    yields identical totals and percentiles. *)
val absorb : into:t -> t -> unit

(** One-line JSON object: count, mean and p50/p90/p99/p999/max.
    Byte-deterministic for identical contents. *)
val to_json : t -> string

(**/**)

(* Exposed for tests: the bucket mapping. *)
val index_of : int -> int
val value_of : int -> int
