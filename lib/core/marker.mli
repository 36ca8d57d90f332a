open Dgr_task

(** Atomic execution of marking tasks (Figs 4-1, 5-1, 5-3).

    [execute run ~emit v par meta] runs one marking task, given as its
    lanes (see {!Task.sink}), to completion against the run's plane,
    handing each spawned mark task to [emit] as lanes as it is created —
    no list, view or closure is built, so the marking inner loop does
    not allocate. Task execution is atomic with respect to the vertex it
    manipulates (§2.1); in the simulator [emit] sends the task through
    the network, in the synchronous engine it queues locally. A mark task
    addressed to a free vertex degenerates to an immediate return (its
    target was reclaimed by an earlier cycle's restructuring; the next
    cycle will see the truth). *)

val execute : Run.t -> pe:int -> emit:Task.sink -> int -> int -> int -> unit
(** Raises [Invalid_argument] if the task does not belong to the run
    (wrong plane / variant / wave — stale-wave tasks must be dropped by
    the caller before dispatch). [pe] is the executing PE, used only to
    pick the run's per-PE execution counter cell; pass [-1] from the
    controller. *)

val seed_meta : Run.t -> int
(** The lane meta of the run's seed task: the variant's mark task with
    (for M_R) initial priority 3 — "we assume that the value of the root
    is essential to the overall computation" (§5.1). A seed's parent is
    [Rootpar] ([-1]). *)
