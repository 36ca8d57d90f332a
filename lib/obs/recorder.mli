(** The event recorder: a fixed-capacity ring buffer plus a per-PE
    time-series sampler.

    The recorder is designed to be threaded through the machine as a
    nullable hook: every instrumentation site is
    [match recorder with None -> () | Some r -> Recorder.emit r ...], so
    the disabled path costs one branch. Emitting appends into a
    pre-allocated ring — when full, the oldest events are overwritten and
    counted in {!dropped} (the time series is never dropped).

    The recorder carries the simulation clock: the engine calls
    {!set_now} once per step and every emitter inherits that stamp, so
    deep modules (mutator, reducer, network) need no clock plumbing. All
    stamps and sequence numbers are deterministic functions of the
    machine's execution, which is what makes exports byte-reproducible
    for a fixed config + seed. *)

type sample = {
  s_step : int;
  s_live : int;  (** live vertices (global) *)
  s_in_flight : int;  (** messages in the network *)
  s_headroom : int;  (** free-list headroom; [-1] = unbounded heap *)
  s_pool_depth : int array;  (** per PE *)
  s_marking : int array;  (** marking tasks executed per PE since last sample *)
  s_reduction : int array;  (** reduction tasks executed per PE since last sample *)
  s_drops : int;  (** frames lost by the fault plane since last sample *)
  s_dups : int;  (** frames duplicated since last sample *)
  s_retransmits : int;  (** retransmissions fired since last sample *)
  s_stalls : int;  (** PE stalls begun since last sample *)
  s_frames : int;  (** data frames flushed onto links since last sample *)
  s_batched_tasks : int;  (** tasks carried by those frames *)
  s_acks_piggybacked : int;  (** cumulative acks that rode a data frame *)
}

type t

val create : ?capacity:int -> ?sample_every:int -> num_pes:int -> unit -> t
(** [capacity] (default 65536, min 1) bounds the event ring;
    [sample_every] (default 0 = sampling off) is the time-series period in
    steps. *)

val set_now : t -> int -> unit

val now : t -> int

val num_pes : t -> int

val sample_every : t -> int

val emit : t -> Event.kind -> unit
(** Append an event stamped [(now, seq)]; [seq] increases by 1 per emit
    for the lifetime of the recorder (never resets on wraparound). *)

val length : t -> int
(** Events currently held (≤ capacity). *)

val capacity : t -> int

val emitted : t -> int
(** Total events ever emitted. *)

val dropped : t -> int
(** Events overwritten by ring wraparound ([emitted - length]). *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val tick : t -> live:int -> in_flight:int -> headroom:int -> pool_depth:int array -> unit
(** Called by the engine once per step (after execution); takes a sample
    when [now] lands on the sampling period. Per-PE throughput columns are
    the [Execute] events seen since the previous sample. *)

val samples : t -> sample list
(** Oldest first. *)

val drain_into : src:t -> dst:t -> unit
(** Re-emit every event buffered in [src] into [dst] (restamping with
    [dst]'s clock and sequence) and reset [src]. The sharded engine
    drains each PE's private sub-recorder at the step barrier in
    ascending PE order, which makes the merged event stream — and every
    export derived from it — independent of domain scheduling. Raises
    [Invalid_argument] if [src]'s ring has wrapped (events would be
    silently missing from the merge), naming the events [src] took since
    its last drain, its capacity and how many were lost; [dst] is then
    untouched. *)
