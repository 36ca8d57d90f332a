open Dgr_graph
open Dgr_task

(** Per-PE task pools (§5.2's [taskpool(i)]) with dynamic prioritization.

    A pool holds two queues. Marking tasks wait in a FIFO ring of mark
    lanes ({!Dgr_task.Mark_ring}): they all share one priority and carry
    no lineage ticket, so push and pop are O(1) and allocate nothing;
    the [Task.t] entry points convert to and from views. Reduction tasks
    wait in a priority queue (FIFO among equals, so execution stays
    deterministic). The policy decides how much of
    the paper's §3.2 the reduction scheduler uses:

    - [Flat]: no priorities (everything FIFO) — the ablation baseline;
    - [By_demand]: vital requests before eager ones, statically;
    - [Dynamic]: additionally refined by the destination vertex's
      [sched_prior] — the global priority the last completed M_R cycle
      assigned (3 vital / 2 eager / 1 reserve), so an eager subtree that
      became vital is boosted and one that became reserve is demoted. *)

type policy = Flat | By_demand | Dynamic

type t

val create :
  ?recorder:Dgr_obs.Recorder.t ->
  ?lineage:Dgr_obs.Lineage.t ->
  ?pe:int ->
  policy ->
  Graph.t ->
  t
(** [pe] (default 0) is the owning PE's index, used only to stamp trace
    events; with a recorder, {!purge} emits a [Purge] event per non-empty
    sweep. With a [lineage] store, {!purge} releases the tickets of the
    tasks it expunges (stamps ride queue tags; see {!push}). *)

val push : ?stamp:int -> t -> Task.t -> unit
(** [stamp] (default [-1]) is the task's lineage ticket; it rides the
    queue untouched and comes back out of {!drain_lanes}. Marking tasks
    are never ticketed: pushing one with [stamp >= 0] raises
    [Invalid_argument] naming the PE and the stamp. *)

val push_stamped : t -> int -> Task.t -> unit
(** [push_stamped t stamp task] is [push ~stamp t task] without the
    optional argument. *)

val marks : t -> Mark_ring.t
(** The marking queue, as lanes ({!Task.sink}): delivery pushes a whole
    frame's marks into it at once ([Network.take_mark_lanes]). *)

val drain_lanes :
  t -> budget:int -> red:(Task.t -> int -> unit) -> mark:Task.sink -> unit
(** Pop up to [budget] tasks, handing a reduction to [red task stamp] and
    a mark to [mark v par meta], and stop early when both queues run dry.
    Each pop takes the highest-priority reduction task (FIFO among
    equals), falling back to the oldest mark when no reduction is queued
    (an idle PE lends its slot to the collector). Allocates nothing —
    the engine's budget-loop form. *)

val drain_marking : t -> budget:int -> Task.sink -> unit
(** {!drain_lanes} over the marking queue only, oldest first — marking
    and reduction live in separate queues so the engine can budget them
    separately. *)

val drain : t -> budget:int -> (Task.t -> int -> unit) -> unit
(** {!drain_lanes} with marks handed over as views ([Marking], stamp
    [-1]) — the [Task.t] form for tests and tools. *)

val length : t -> int

val is_empty : t -> bool

val tasks : t -> Task.t list
(** Queued marking tasks in FIFO order, then reduction tasks in queue
    order (ascending priority, FIFO among ties) — deterministic, so
    external views built from pool contents are stable. *)

val iter_reductions : t -> (Task.reduction -> unit) -> unit
(** Apply [f] to every pooled reduction task in unspecified order; the
    marks are skipped without building views (M_T seeding). *)

val purge : t -> (Task.t -> bool) -> int
(** Remove all tasks matching the predicate; returns how many. The
    survivors keep their pop order. *)

val reprioritize : t -> int
(** Recompute the reduction tasks' priorities under the current graph
    state ([sched_prior] may have changed after a cycle); returns the
    number of entries whose priority changed. Marking tasks have none. *)

val priority_of : policy -> Graph.t -> Task.t -> int
(** Exposed for tests. Marking = 0; cancels = 1. Under [Dynamic], a
    request's global class is its destination's [sched_prior] when
    classified, else inherited from its source capped by the relative
    demand (a task spawned from an eager region stays eager, §3.2);
    responses ride their requester's class. Classes map to bands: vital
    responses (1), vital requests (2), eager responses (3), eager
    requests (4), reserve (5). *)
