open Dgr_graph
open Dgr_task

(** The distributed machine: n autonomous PEs with local task pools, a
    message network, the reduction process, and one of four memory-
    management regimes. Execution is a deterministic discrete-step
    simulation — each step every PE executes up to [tasks_per_step] tasks
    from its pool, spawned tasks travel [1] step locally or [latency]
    steps across PE boundaries.

    Regimes:
    - [No_gc]: the graph only grows (control runs, and the workload
      generator for E7's "unbounded irrelevant work" ablation);
    - [Concurrent _]: the paper's system — endless M_T/M_R cycles running
      {e while reduction mutates the graph}, restructure charged as the
      only pause;
    - [Stop_the_world _]: halt everything and trace (§4's strawman);
    - [Refcount]: distributed reference counting (§4's other strawman).

    Pauses are modeled by converting synchronous work (STW trace+sweep,
    concurrent restructure sweep) into skipped execution steps at the
    machine's aggregate throughput. *)

type gc_mode =
  | No_gc
  | Concurrent of { deadlock_every : int; idle_gap : int }
      (** [deadlock_every]: run M_T every k-th cycle (0 = never);
          [idle_gap]: steps between a cycle's end and the next start *)
  | Stop_the_world of { every : int }
  | Refcount

(** Machine configuration, grouped by concern: [machine] (the PEs and
    their scheduling), [gc] (the memory-management regime), [network]
    (the interconnect and its fault plane). Build one with {!Config.make}
    — named optional arguments with the historical defaults — and derive
    variants with the [with_*] updaters, so adding a knob never breaks a
    caller:

    {[
      let cfg = Engine.Config.make ~num_pes:8 ~gc:Engine.Refcount () in
      let faster = Engine.Config.with_latency 1 cfg
    ]} *)
module Config : sig
  type machine = {
    num_pes : int;
    tasks_per_step : int;  (** per-PE execution bandwidth *)
    pool_policy : Pool.policy;
    speculate_if : bool;
    seed : int;  (** seed for all of the machine's scheduling randomness *)
    domains : int;
        (** OS-level shards: the PEs are split into [domains] contiguous
            ranges, each stepped on its own OCaml domain between step
            barriers. Purely an execution knob — live sets, verdicts and
            digests for a (config, seed) pair are identical at every
            shard count, and [1] (the default) runs everything on the
            calling domain. Clamped to [[1, num_pes]]. *)
  }

  type gc = {
    mode : gc_mode;
    heap_size : int option;
        (** bound on the vertex table — §2.2's finite V. Template
            expansion stalls when the free list cannot supply it, which
            is what makes eager evaluation "resources permitting" (§3.2);
            collections are additionally triggered by memory pressure.
            [None] = unbounded. *)
    gc_work_factor : int;
        (** GC work units (trace/sweep one vertex) per task slot, used
            when converting synchronous collection work into pause
            steps *)
    marking : Dgr_core.Cycle.scheme;
        (** [Tree] (Figs 4-1/5-1/5-3, the default) or [Flood_counters]
            (the §6 space optimization: counters instead of a marking
            tree). *)
    recover_deadlock : bool;
        (** footnote 5's [is-bottom] pseudo-function: rewrite detected
            deadlocked operators to an error value and answer their
            requesters, so one deadlocked computation cannot hang the
            machine (default false — detection only). *)
  }

  type network = {
    latency : int;  (** cross-PE message delay, in steps (local = 1) *)
    jitter : float;
        (** probability that a remote message takes extra (seeded-random)
            delay, reordering deliveries; 0.0 = fixed latency *)
    faults : Faults.spec;
        (** the fault plane: seeded message drop/duplication/delay,
            transient PE stalls, and whole-PE crashes with checkpointed
            recovery ([crash] / [crash_down_max]; see {!inject_crash}
            for the crash semantics), with reliable delivery layered on
            the network (see {!Faults} and {!Network}). [Faults.none]
            (the default) leaves every fault path byte-identical to a
            machine without the plane. Fault randomness rides
            [fault_seed]'s own streams, never [seed]'s. *)
    batch : bool;
        (** frame batching (default true): tasks staged on the same
            (src, dst) link for the same arrival step ride one data
            frame (see {!Network}). [false] restores one task per
            frame — the paper's literal one-task-per-message transport
            — for A/B measurement; every task is delivered, with the
            same arrival step and per-link order, either way. *)
  }

  type t = { machine : machine; gc : gc; network : network }

  val make :
    ?num_pes:int ->
    ?latency:int ->
    ?tasks_per_step:int ->
    ?gc_work_factor:int ->
    ?heap_size:int option ->
    ?pool_policy:Pool.policy ->
    ?speculate_if:bool ->
    ?gc:gc_mode ->
    ?marking:Dgr_core.Cycle.scheme ->
    ?recover_deadlock:bool ->
    ?jitter:float ->
    ?seed:int ->
    ?faults:Faults.spec ->
    ?domains:int ->
    ?batch:bool ->
    unit ->
    t
  (** Smart constructor; every omitted knob takes the historical default:
      4 PEs, latency 4, 2 tasks/step, heap 50k, [Dynamic] pools,
      speculation on, concurrent GC with M_T every cycle and idle gap 50,
      [Tree] marking, no jitter, no faults, seed 0, 1 domain, batching
      on. Raises [Invalid_argument], naming the field and the value, when
      [num_pes], [latency], [tasks_per_step] or [gc_work_factor] is below
      1, [jitter] is outside [[0, 1]] (NaN included), or [gc] is a
      [Stop_the_world] period below 1 or a [Concurrent] mode with a
      negative [deadlock_every] or [idle_gap] ([deadlock_every = 0]
      disables M_T); so do {!with_num_pes}, {!with_latency},
      {!with_tasks_per_step}, {!with_gc_work_factor}, {!with_gc} and
      {!with_jitter}. [make]
      and {!with_faults} likewise refuse a fault rate ([drop],
      [duplicate], [delay], [stall], [crash]) outside [[0, 1]], and
      [drop = 1], which loses every retransmit and ack too. *)

  val default : t
  (** [make ()]. *)

  (** {2 Flat accessors} *)

  val num_pes : t -> int
  val latency : t -> int
  val tasks_per_step : t -> int
  val gc_work_factor : t -> int
  val heap_size : t -> int option
  val pool_policy : t -> Pool.policy
  val speculate_if : t -> bool
  val gc : t -> gc_mode
  val marking : t -> Dgr_core.Cycle.scheme
  val recover_deadlock : t -> bool
  val jitter : t -> float
  val seed : t -> int
  val faults : t -> Faults.spec
  val domains : t -> int
  val batch : t -> bool

  (** {2 Updaters}

      [with_x v cfg] is [cfg] with knob [x] set to [v]; composes with
      [|>]. *)

  val with_num_pes : int -> t -> t
  val with_latency : int -> t -> t
  val with_tasks_per_step : int -> t -> t
  val with_gc_work_factor : int -> t -> t
  val with_heap_size : int option -> t -> t
  val with_pool_policy : Pool.policy -> t -> t
  val with_speculate_if : bool -> t -> t
  val with_gc : gc_mode -> t -> t
  val with_marking : Dgr_core.Cycle.scheme -> t -> t
  val with_recover_deadlock : bool -> t -> t
  val with_jitter : float -> t -> t
  val with_seed : int -> t -> t
  val with_faults : Faults.spec -> t -> t
  val with_domains : int -> t -> t
  val with_batch : bool -> t -> t
end

type config = Config.t

type t

val create :
  ?recorder:Dgr_obs.Recorder.t ->
  ?config:config ->
  Graph.t ->
  Dgr_reduction.Template.registry ->
  t
(** [recorder] (default none) turns on structured event tracing: it is
    threaded through the network, pools, mutator, reducer and marking
    controller, receives every task send/deliver/execute, purge, phase
    transition, pause, heap-pressure and verdict event, and samples the
    per-PE time series once per [sample_every] steps (see
    {!Dgr_obs.Recorder}). With no recorder the instrumented paths cost a
    single branch. *)

val recorder : t -> Dgr_obs.Recorder.t option

val config : t -> config

val graph : t -> Graph.t

val reducer : t -> Dgr_reduction.Reducer.t

val mutator : t -> Dgr_core.Mutator.t

val cycle : t -> Dgr_core.Cycle.t option
(** The GC controller, in [Concurrent] mode. *)

val refcount : t -> Dgr_baseline.Refcount.t option

val metrics : t -> Metrics.t

val executed_per_pe : t -> int array
(** Tasks each PE has executed so far (marks and reductions; index =
    PE), a fresh copy. Deterministic: the same at every domain count. *)

val lineage : t -> Dgr_obs.Lineage.t
(** The machine's causal-lineage ticket store. {!inject} mints a fresh
    lineage id; every reduction task the machine pools on behalf of that
    injection — transitively, through every send — carries it, and its
    per-hop latency decomposition (network transit, retransmit delay,
    queue wait) is folded into {!metrics}' histograms at execution.
    Ticket allocation is serial and deterministic, so per-lineage
    aggregates are identical at every [domains] value. *)

val profile : t -> Profile.t
(** Wall-clock step-phase attribution (transport / execute / merge / GC /
    bookkeeping, per-shard budget time) and the measured Amdahl serial
    fraction, as a fresh snapshot. Always on — one [gettimeofday] per
    phase boundary plus three per shard — but never part of
    deterministic artifacts. *)

val faults : t -> Faults.t option
(** The live fault plane, when [config.faults] is active: its counters
    (drops, dups, retransmits, suppressed redeliveries, stalls) are the
    ground truth the per-step metrics sync from. *)

val now : t -> int

val inject_root_demand : t -> unit
(** Send the distinguished initial task [<-,root>]. *)

val inject : t -> Task.t -> unit
(** Route an arbitrary task (tests and scenario builders). *)

val inject_crash : t -> pe:int -> down:int -> unit
(** Crash [pe] immediately (tests and scenario builders): its pool,
    in-flight frames on both link directions and striped graph segment
    are lost; the segment is restored from a checkpoint synced at the
    moment of the call (so the restore is exact), its live vertices are
    re-homed onto the surviving PEs, and an interrupted marking phase is
    restarted. The PE executes nothing for [down] steps, then comes back
    up empty-handed. Works on machines with or without a fault plane.
    Raises [Invalid_argument] if [pe] is out of range or already down,
    if [down < 1], or if the crash would leave fewer than one survivor.
    Crashes driven by {!Config}'s [faults.crash] rate follow exactly this
    path, scheduled by seeded dice at the top of each step. *)

val pe_down : t -> int -> bool
(** Whether a PE is currently crashed (always false out of range). *)

val step : t -> unit
(** One discrete step, always executed the same way: each PE's budget
    runs against a private context — its own splitmix scheduling stream,
    sender record in the network (it frames its own sends), metrics,
    reducer counters, event buffer and refcount log — and the contexts
    are merged into the shared
    machine at a step barrier in ascending PE order. The serial parts
    bracket the shards: crashes and recoveries at the top of the step,
    then delivery, which hands reduction tasks to their pools and parks
    each frame for its destination; stall dice just before the shards,
    each of which first pushes its PEs' parked marks into their pools (a
    down or stalled PE receives them too, then executes nothing); logged
    refcount changes at the barrier (increments, then
    decrements, then one purge of tasks addressing freed vertices).
    When [Config.domains > 1] the shards run on a pool of OCaml domains
    (spawned lazily on the first parallel step; see {!dispose}) — except
    on a machine with a fault plane, which runs them inline and never
    spawns the pool. Because the
    merge order is fixed, results are bit-identical at every [domains]
    value. *)

val dispose : t -> unit
(** Stop and join the worker domains, if any were spawned. Idempotent;
    an engine stays usable after disposal (its next parallel step spawns
    a fresh pool), but call this before dropping any engine run with
    [domains > 1] — the runtime caps the number of live domains. Between
    steps the workers spin for a few milliseconds, then park, so an
    engine left idle holds no core. *)

val enable_ownership_checks : t -> unit
(** Install {!Dgr_core.Invariants.ownership_guard} on the mutator: every
    edge-set mutation then verifies that the executing PE owns the vertex
    it mutates (vertices born this step are exempt — a PE wires up its
    own fresh template vertices before publishing them). This is the
    discipline that makes sharded steps race-free; the guard makes
    violations fail loudly in tests instead of corrupting a run. *)

val run : ?max_steps:int -> ?stop:(t -> bool) -> t -> int
(** Step until the stop condition holds or the budget is exhausted;
    returns steps executed this call. The default stop condition is
    {!finished}; passing [stop] {e replaces} it (e.g. to keep the
    collector cycling after the result, or to wait for a deadlock
    verdict). Without a concurrent collector the machine also stops once
    fully quiescent. [max_steps] defaults to 1_000_000. *)

val result : t -> Label.value option

val finished : t -> bool

val quiescent : t -> bool
(** No tasks pooled or in flight and no marking cycle mid-phase. *)

val pending_tasks : t -> Task.t list
(** Everything pooled + in flight (reduction and marking). *)

val pending_reduction_tasks : t -> Task.reduction list

val locate_task : t -> (Task.t -> bool) -> string list
(** Where matching pending tasks currently sit ("pool[pe=N] …" or
    "network …"); a debugging aid. *)

val network_entries : t -> (int * Task.t) list
(** [(arrival, task)] for every in-flight message (debugging aid). *)
