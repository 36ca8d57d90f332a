open Dgr_graph
open Dgr_task

(** In-process marking engine.

    Executes marking tasks from a single queue until quiescence — no PEs,
    no network. This is the harness for unit tests, property tests (which
    interleave adversarial mutations between task executions), the
    algorithmic micro-benchmarks, and the simulator's stop-the-world
    collector, which runs M_R here while the machine is halted; the full
    distributed execution lives in [Dgr_sim]. It drives both bookkeeping schemes — marking-tree runs
    ({!start}) and §6 floods ({!start_flood}), one per plane — on the
    machine's mark path: marks queue as lanes on a {!Mark_ring} and go
    straight to [Marker.execute] / [Flood.execute].

    The dequeue [order] explores different legal schedules of the
    decentralized algorithm: results must be order-insensitive, which the
    property tests assert. [Fifo] takes the oldest mark; [Lifo] the
    newest; [Random] a uniformly drawn one, moving the newest into its
    slot. *)

type order = Fifo | Lifo | Random of Dgr_util.Rng.t

type t

val create : ?order:order -> Graph.t -> t
(** Default order is [Fifo]. *)

val graph : t -> Graph.t

val mutator : t -> Mutator.t
(** A mutator whose [spawn] feeds this engine's queue. Its active runs
    and floods are maintained by [start]/[start_flood]. *)

val start : t -> Run.variant -> seeds:Vid.t list -> Run.t
(** Create a run, enqueue a seed task per vertex (parent [Rootpar]) and
    register the run with the mutator; it replaces whatever ran on its
    plane. A duplicate-free seed list is the caller's responsibility
    (duplicates are legal but wasteful). *)

val start_flood : t -> Run.variant -> seeds:Vid.t list -> Flood.t
(** {!start} for the flood scheme: create a flood on the variant's
    plane, enqueue a seed per vertex (each counted as sent by PE 0) and
    register the flood with the mutator. *)

val pending : t -> Task.mark list
(** The queued marks as views, oldest first (invariant checks). *)

val step : t -> bool
(** Execute one task; [false] when the queue is empty. Raises
    [Invalid_argument] if nothing was started on a task's plane. *)

val drain : ?interleave:(int -> unit) -> ?max_steps:int -> t -> int
(** Execute until the queue is empty; returns the number of tasks
    executed. [interleave n] is called before the [n]-th execution (the
    mutation adversary). Raises [Failure] after [max_steps] (default
    10_000_000) as a non-termination guard. *)

val mark : ?order:order -> Graph.t -> Run.variant -> seeds:Vid.t list -> Run.t
(** One-shot convenience: create an engine, [start], [drain], return the
    finished run. *)
