(** Step-phase profiler: where the engine's wall-clock time — and its
    minor-heap allocation — goes.

    The engine brackets each step into transport / execution / barrier
    merge / GC control / bookkeeping phases, chained so that they
    partition the step, and each shard splits its budget loops into
    marking vs reduction work. The merge span is further split into
    its barrier stages (event drain, metric absorption, lineage closes,
    the seal, deferred replay). The sharded engine runs two spans in
    parallel — execution and restructure's per-home passes — so the
    measured Amdahl serial fraction is
    [(total - execute - restructure) / total], the direct yardstick for
    how much of a step sharding can reach. The seal is serial: it runs
    on the main domain at the barrier.

    The same brackets also accumulate [Gc.minor_words] deltas, so the
    bench's [minor_words_per_step] budget can be attributed to a phase
    when it regresses. On the sharded engine only the coordinating
    domain's words are attributed (workers count on their own heaps).

    Wall-clock readings are non-deterministic; they never feed traces,
    metrics JSON or golden fixtures. Deterministic outputs
    ([dgr report --deterministic], deterministic bench rows) zero the
    whole profile.

    A value is a snapshot: [Engine.profile] copies the engine's running
    sums into a fresh record. *)

type t = {
  mutable steps : int;
  mutable minor_gcs : int;
      (** minor collections during [Engine.run], machine-wide: the
          [Gc.quick_stat] delta over the run, at its domain count (each
          one stops every domain). Steps driven outside [Engine.run]
          leave it untouched. *)
  mutable total_ns : float;
  mutable transport_ns : float;
  mutable execute_ns : float;
  mutable sexec_ns : float;
      (** always 0: every step now executes on the sharded path. Kept
          (with [sexec_mw] and the JSON's [execute_serial]) for readers
          that still name it. *)
  mutable merge_ns : float;
  mutable drain_ns : float;
  mutable absorb_ns : float;
  mutable close_ns : float;
  mutable pflush_ns : float;
      (** always 0: the barrier's seal is one serial pass on the main
          domain ([flush_ns]), with no parallel grouping half. Kept for
          readers that still name it. *)
  mutable flush_ns : float;  (** the barrier's [Network.seal] *)
  mutable replay_ns : float;
  mutable gc_ns : float;
  mutable book_ns : float;
  mutable restr_ns : float;
  mutable mark_ns : float;
  mutable red_ns : float;
  mutable total_mw : float;
  mutable transport_mw : float;
  mutable execute_mw : float;
  mutable sexec_mw : float;  (** always 0, see [sexec_ns] *)
  mutable merge_mw : float;
  mutable gc_mw : float;
  mutable book_mw : float;
  mutable main_parks : int;  (** main-domain parks waiting on the shards *)
  mutable worker_parks : int;
      (** worker parks waiting for a job. Both count on the park path
          only: many per step mark a descheduled run, not a busy one. *)
  shard_ns : float array;
      (** per shard (index = shard): the time its marking and reduction
          budget loops took, so the entries sum to [mark_ns + red_ns].
          At more than 1 domain a slow shard shows here. Empty from
          {!create}. *)
}

val create : unit -> t

(** Fraction of total step time spent outside the parallelizable spans
    (execution and sharded restructure), in [0, 1]; [0.0] before any
    step ran. *)
val serial_fraction : t -> float

(** Best-case speedup at [domains] workers under Amdahl's law with the
    measured serial fraction. *)
val amdahl_speedup : t -> domains:int -> float
