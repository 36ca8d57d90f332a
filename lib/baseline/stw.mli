open Dgr_graph

(** Stop-the-world mark & sweep — the "conventional" collector the paper's
    concurrent scheme is measured against (§4: a static marking algorithm
    "would require that the computation be halted while marking takes
    place").

    [collect] runs synchronously: BFS-mark everything reachable from the
    root through [args], sweep the rest to the free list. A release raises
    the slot's generation, so tasks whose endpoints died are stale and
    are dropped where they are next handled. The returned [work]
    (vertices traced + table swept) is the pause the engine charges to
    the mutator. *)

type report = {
  marked : int;
  reclaimed : int;
  work : int;  (** abstract pause cost: |trace| + |sweep| *)
}

val collect : Graph.t -> report
