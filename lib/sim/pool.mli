open Dgr_graph
open Dgr_task

(** Per-PE task pools (§5.2's [taskpool(i)]) with dynamic prioritization.

    A pool holds two queues. Marking tasks wait in a FIFO ring of mark
    lanes ({!Dgr_task.Mark_ring}): they all share one priority and carry
    no lineage ticket, so push and pop are O(1) and allocate nothing;
    the [Task.t] entry points convert to and from views. Reduction tasks
    wait as rows of ints ({!Task.red_sink}) in a table the pool owns,
    their slots in a priority queue (FIFO among equals, so execution
    stays deterministic); a queued reduction takes ten words, not
    counting the two arrays' growth slack. The policy decides how much of
    the paper's §3.2 the reduction scheduler uses:

    - [Flat]: no priorities (everything FIFO) — the ablation baseline;
    - [By_demand]: vital requests before eager ones, statically;
    - [Dynamic]: additionally refined by the destination vertex's
      [sched_prior] — the global priority the last completed M_R cycle
      assigned (3 vital / 2 eager / 1 reserve), so an eager subtree that
      became vital is boosted and one that became reserve is demoted. *)

type policy = Flat | By_demand | Dynamic

type t

type red = int -> int -> int -> int -> int -> int -> string -> unit
(** Receives one reduction as [stamp head src dst key pay err]: its
    lineage ticket, then its lanes ({!Task.red_sink}). *)

val create : ?lineage:Dgr_obs.Lineage.t -> ?pe:int -> policy -> Graph.t -> t
(** [pe] (default 0) is the owning PE's index, named in error messages.
    With a [lineage] store, {!purge} releases the tickets of the tasks a
    crash loses (stamps ride queue tags; see {!push}). *)

val push : ?stamp:int -> t -> Task.t -> unit
(** [stamp] (default [-1]) is the task's lineage ticket; it rides the
    queue untouched and comes back out of {!drain_lanes}; the task is
    never stale ({!Task.no_gen}). Marking tasks are never ticketed:
    pushing one with [stamp >= 0] raises [Invalid_argument] naming the
    PE and the stamp. *)

val push_row :
  t -> stamp:int -> gen:int -> int -> int -> int -> int -> int -> string -> unit
(** [push_row t ~stamp ~gen head src dst key pay err]: queue a reduction
    given as its lanes, with its lineage ticket and the generation it
    was sent in — the delivery form. Allocates nothing once the table
    and the heap have grown. *)

val push_stamped : t -> int -> int -> Task.t -> unit
(** [push_stamped t stamp gen task]: {!push_row} of a view. *)

val marks : t -> Mark_ring.t
(** The marking queue, as lanes ({!Task.sink}): delivery pushes a whole
    frame's marks into it at once ([Network.take_mark_lanes]). *)

val drain_lanes : t -> budget:int -> red:red -> dead:red -> mark:Task.sink -> unit
(** Pop up to [budget] tasks, handing a reduction's lanes to [red] and a
    mark to [mark v par meta], and stop early when both queues run dry.
    Each pop takes the highest-priority reduction task (FIFO among
    equals), falling back to the oldest mark when no reduction is queued
    (an idle PE lends its slot to the collector). A stale reduction
    ({!Task.stale}) goes to [dead] instead, without using the budget.
    Allocates nothing — the engine's budget-loop form. *)

val drain_marking : t -> budget:int -> Task.sink -> unit
(** {!drain_lanes} over the marking queue only, oldest first — marking
    and reduction live in separate queues so the engine can budget them
    separately. *)

val drain : t -> budget:int -> (Task.t -> int -> unit) -> unit
(** {!drain_lanes} with marks handed over as views ([Marking], stamp
    [-1]) and stale tasks dropped silently — the [Task.t] form for tests
    and tools. *)

val length : t -> int
(** Queued entries, stale ones included until they are dropped. *)

val is_empty : t -> bool

val tasks : t -> Task.t list
(** Queued marking tasks in FIFO order, then live (not stale) reduction
    tasks in queue order (ascending priority, FIFO among ties) —
    deterministic, so external views built from pool contents are
    stable. *)

val iter_endpoints : t -> (Vid.t -> unit) -> unit
(** Apply [f] to the endpoints of every pooled reduction task, source
    first, read from the lanes in the heap's array order; the marks are
    skipped (M_T seeding; a pool holds no stale entry then, see
    {!reprioritize}). *)

val purge : t -> int
(** Drop every queued task (a crash) and return how many. *)

val reprioritize : ?dead:red -> t -> int
(** Recompute the reduction tasks' priorities under the current graph
    state ([sched_prior] may have changed after a cycle); returns the
    number of entries whose priority changed. Marking tasks have none.
    Restructure calls it right after its releases: it first drops each
    entry they made stale, through [dead]. *)

val priority_of : policy -> Graph.t -> Task.t -> int
(** Exposed for tests. Marking = 0; cancels = 1. Under [Dynamic], a
    request's global class is its destination's [sched_prior] when
    classified, else inherited from its source capped by the relative
    demand (a task spawned from an eager region stays eager, §3.2);
    responses ride their requester's class. Classes map to bands: vital
    responses (1), vital requests (2), eager responses (3), eager
    requests (4), reserve (5). *)
