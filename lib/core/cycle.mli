open Dgr_graph
open Dgr_task

(** The endless mark/restructure cycle (§4, §5), decentralized.

    A [Cycle.t] is the controller state machine driving garbage collection
    concurrently with the reduction process:

    {v Idle → [Mark_tasks (M_T)] → Mark_root (M_R) → restructure → Idle v}

    M_T runs {e before} M_R within a cycle (required by Theorem 2) and only
    on every [deadlock_every]-th cycle (§6: "our approach is to execute
    M_T only occasionally"). The controller is polled by the engine at
    step barriers; phase transitions are detected by run completion.

    {b Epochs.} Every phase start resets its plane, which opens a fresh
    {e wave} ({!Dgr_graph.Graph.wave}) — a globally-unique epoch stamped
    into every mark task the wave spawns and every per-slot mark the
    wave writes. Stale tasks (a crash-abandoned wave's survivors still
    in flight when the phase restarts) are dropped at dispatch by their
    epoch; stale plane slots read as pristine. Nothing is ever purged
    machine-wide, and a new wave can start while an old wave's debris
    drains — marking no longer serializes the step loop.

    {b Seeding.} M_T's seeds ([troot]/[taskroot_i], §5.2) are built from
    per-PE local knowledge: each PE enumerates the reduction-task
    endpoints it knows (its pool, its shard of the in-flight set) via
    [iter_pe_endpoints], visited in fixed PE order;
    cross-PE duplicates are dropped in O(1) by stamping each vertex with
    the current wave. No global task snapshot is taken.

    {b Completion.} The tree scheme completes structurally (the [Return]
    chain drains to [Rootpar]). The flood scheme completes by the
    distributed credit protocol: per-PE (sent, executed) counters ride
    the transport as epoch-tagged credits ({!learn_credit}), and a
    {!Termination} detector pinned to the wave's epoch declares
    quiescence after two balanced observations a detection window apart.
    The paper's §2.1 exactly-once channel assumption still underpins the
    counters; under injected faults the network's reliable-delivery
    layer ([Dgr_sim.Network]) re-earns it, and "in flight" above means
    {e undelivered sends} — a dropped frame still seeds M_T, since its
    retransmission will eventually deliver it.

    {b Restructure} is sharded by home partition (see {!Restructure}):
    verdict collection and survivor bookkeeping run once per home
    through [env.each_home] and merge in fixed PE order. *)

type env = {
  spawn_mark : Task.sink;  (** route a mark, as lanes, into the owning PE's pool *)
  pes : int;  (** home-partition count — one endpoint source per PE *)
  iter_pe_endpoints : int -> (Vid.t -> unit) -> unit;
      (** [iter_pe_endpoints pe f]: apply [f] to the endpoint vertices of
          every pending or in-flight reduction task that PE [pe] knows
          locally — its pool, its outgoing sends, its shard of parked
          work. Repeats (within or across PEs) are fine: the controller
          dedups by wave stamp. Called serially, in ascending PE order.
          Stale tasks ({!Dgr_task.Task.stale}) are not visited. *)
  reprioritize : unit -> int;
  each_home : (int -> unit) -> unit;
      (** run a per-home restructure pass for every home PE (the engine's
          loop also times the passes); must call its argument exactly
          once per PE *)
  now : unit -> int;
      (** simulation clock, for flood-scheme termination detection *)
}

type phase = Idle | Mark_tasks | Mark_root

type scheme = Tree | Flood_counters
(** [Tree]: the marking-tree algorithm of Figs 4-1/5-1/5-3 (per-vertex
    mt-cnt/mt-par, return tasks, [done] via rootpar). [Flood_counters]:
    the §6 space optimization — no returns, two counter words per PE,
    termination by credit counting (see {!Flood} and {!Termination}). *)

type handler = Tree_run of Run.t | Flood_run of Flood.t
(** What the engine must hand a marking task to. *)

type t

val create :
  ?deadlock_every:int -> ?scheme:scheme -> ?detection_window:int ->
  ?recorder:Dgr_obs.Recorder.t -> Graph.t -> Mutator.t -> env -> t
(** [deadlock_every = k]: every k-th cycle also runs M_T (default 1 =
    every cycle; 0 = never detect deadlock). [scheme] defaults to [Tree];
    [detection_window] (default 8) is the flood scheme's credit
    round trip in steps. [recorder] receives phase transitions (wave-
    tagged) and cycle verdicts as trace events. The mutator's active
    lists are managed by this controller from here on. *)

val scheme : t -> scheme

val phase : t -> phase

val start_cycle : t -> unit
(** Begin marking from [Idle]. Raises [Invalid_argument] if a cycle is
    already in progress. No-op graphs (no root) still cycle: an absent
    root means everything live is garbage. *)

val poll : t -> Restructure.report option
(** Advance the state machine if the current run has finished; returns the
    cycle report when a cycle completes (restructure just ran). *)

val learn_credit : t -> pe:int -> epoch:int -> sent:int -> executed:int -> unit
(** Feed one termination credit to the current flood detector (the
    engine wires the network's credit sink here). Wrong-epoch credits —
    debris of an abandoned wave, or latecomers after a phase flip — are
    dropped by the detector; calling while Idle or under the tree scheme
    is harmless for the same reason. *)

val restart_phase : t -> unit
(** Crash recovery: abandon the marking wave in progress and re-derive
    the current phase from scratch — reset its plane ({e opening a new
    wave}), create a fresh run (tree) or flood counters plus a fresh
    termination detector pinned to the new epoch (flood: quiescence is
    re-derived, never resumed), and re-seed. No machine-wide purge is
    required: the dead wave's surviving marks, returns and credits carry
    the old epoch and are dropped at dispatch (engine) or by the
    detector — they cannot corrupt the fresh run's accounting. The other
    plane's settled result and the cycle counter are untouched. No-op
    when [Idle]. *)

val run_for_plane : t -> Plane.id -> Run.t option
(** The tree run whose tasks the engine should hand to [Marker.execute]
    ([None] under the flood scheme — use {!handler_for_plane}). *)

val handler_for_plane : t -> Plane.id -> handler option
(** Scheme-agnostic dispatch for the engine. *)

val cycles_completed : t -> int

val last_report : t -> Restructure.report option

val deadlocked_ever : t -> Vid.Set.t
(** Union of all deadlock reports so far. *)

val total_garbage_collected : t -> int
