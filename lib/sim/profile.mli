(** Step-phase profiler: where the engine's wall-clock time — and its
    minor-heap allocation — goes.

    The engine brackets each step into transport / execution / barrier
    merge / GC control / bookkeeping phases, chained so that they
    partition the step, and each shard splits its budget loops into
    marking vs reduction work. The merge span is further split into
    its barrier stages (event drain, metric absorption, lineage closes,
    the seal, deferred replay). Two spans touch only per-PE state, so a
    parallel step could run them on several cores — execution and
    restructure's per-home passes — and the measured Amdahl serial
    fraction is [(total - execute - restructure) / total], the direct
    yardstick for how much of a step running shards in parallel could
    reach. The engine runs every span on the calling domain; the seal
    is serial by construction.

    The same brackets also accumulate [Gc.minor_words] deltas on every
    step, so the bench's [minor_words_per_step] budget can be attributed
    to a phase when it regresses; the [_mw] sums are exact counts.

    A clock reading (~50 ns) is a large share of a light step, so the
    engine clocks one step in {!stride} and reads no clock on the
    others. Every [_ns] sum is therefore an estimate of the whole run's
    time — the clocked steps' spans, each weighted by {!stride} —
    except two rare, large spans: restructure's home passes are clocked
    on every cycle, and their exact time is [restr_ns] and enters
    [gc_ns] and [total_ns] unweighted; a stop-the-world collection's
    mark is clocked on every collection and enters [gc_ns] and
    [total_ns] the same way. The phases still partition the step exactly:
    the [_ns] phase sums add up to [total_ns], and the merge's
    sub-phases to [merge_ns].

    Wall-clock readings are non-deterministic; they never feed traces,
    metrics JSON or golden fixtures. Deterministic outputs
    ([dgr report --deterministic], deterministic bench rows) zero the
    whole profile.

    A value is a snapshot: [Engine.profile] copies the engine's running
    sums into a fresh record. *)

val stride : int
(** The engine clocks the first step of every [stride] (7): a step whose
    [Engine.now] is a multiple of it. *)

type t = {
  mutable steps : int;
  mutable clocked : int;
      (** steps that read the clock, one in {!stride}: the basis of the
          [_ns] estimates other than [restr_ns] *)
  mutable minor_gcs : int;
      (** minor collections during [Engine.run], machine-wide: the
          [Gc.quick_stat] delta over the run, at its domain count (each
          one stops every domain). Steps driven outside [Engine.run]
          leave it untouched. *)
  mutable total_ns : float;
      (** estimated: the weighted phase samples plus the exact spans,
          so exactly the sum of the five phases' [_ns] *)
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
      (** always 0: the barrier's seal is one serial pass ([flush_ns]),
          with no parallel grouping half. Kept for readers that still
          name it. *)
  mutable flush_ns : float;  (** the barrier's [Network.seal] *)
  mutable replay_ns : float;
  mutable gc_ns : float;
      (** the weighted sample of GC control outside the exact spans, plus
          [restr_ns] and the exact stop-the-world marks *)
  mutable book_ns : float;
  mutable restr_ns : float;
      (** exact: restructure's home passes, clocked on every cycle *)
  mutable mark_ns : float;
  mutable red_ns : float;
  mutable total_mw : float;
      (** exact, like every [_mw] sum: minor words over every step *)
  mutable transport_mw : float;
  mutable execute_mw : float;
  mutable sexec_mw : float;  (** always 0, see [sexec_ns] *)
  mutable merge_mw : float;
  mutable gc_mw : float;
  mutable book_mw : float;
  shard_ns : float array;
      (** per shard (index = shard): the estimated time its marking and
          reduction budget loops took, so the entries sum to
          [mark_ns + red_ns].
          At more than 1 domain an uneven split shows here. Empty from
          {!create}. *)
}

val create : unit -> t

(** Fraction of total step time spent outside the parallelizable spans
    (execution and sharded restructure), in [0, 1]; [0.0] before any
    step ran. *)
val serial_fraction : t -> float

(** Best-case speedup at [domains] cores under Amdahl's law with the
    measured serial fraction. *)
val amdahl_speedup : t -> domains:int -> float
