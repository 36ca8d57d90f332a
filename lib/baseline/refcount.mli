open Dgr_graph

(** Distributed reference counting — the alternative the paper dismisses
    (§4): "reference counting has particular deficiencies that make it
    unsuitable for our purposes, such as the inability to reclaim
    self-referencing structures, and the inability to perform the tracing
    necessary to identify task types."

    Counts incoming [args] edges. Every increment/decrement that crosses a
    PE boundary is tallied as a message (the steady-state network overhead
    RC pays that tracing does not). When a non-root vertex's count drops
    to zero it is reclaimed immediately and its outgoing references are
    decremented in cascade. Cyclic structures never reach zero — which is
    exactly what experiment E6 demonstrates. Counts are an int column by
    vid; a release raises the slot's generation, so tasks addressing a
    reclaimed vertex go stale without a hook into the task plane. *)

type t

val create : Graph.t -> t
(** Adopts edges already present in the graph. *)

val on_connect : t -> Vid.t -> Vid.t -> unit
(** Hook for [Mutator.on_connect] (parent, child). *)

val on_disconnect : t -> Vid.t -> Vid.t -> unit
(** Hook for [Mutator.on_disconnect]. Frees on zero, cascading. *)

val count : t -> Vid.t -> int
(** Current reference count (0 for free or never-referenced vertices). *)

val pin : t -> Vid.t -> unit
(** Add an external reference (used for the root and for long-lived
    handles the engine must keep alive). *)

val unpin : t -> Vid.t -> unit

val reclaimed : t -> int
(** Total vertices freed by RC so far. *)

val messages : t -> int
(** Cross-PE inc/dec messages tallied. *)

val leaked : t -> Vid.t list
(** Live vertices with a positive count that are unreachable from the
    root — the cyclic garbage RC can never reclaim (computed against the
    oracle; diagnostic only). *)
