open Dgr_graph

(** The per-plane traced-children relation.

    M_R traces the data-dependence relation [→] through [args(v)] (§5.1);
    M_T traces the task-propagation relation [↦] through
    [requested(v) ∪ (args(v) − req-args(v))] (§5.2). Each cooperating
    mutation only needs to cooperate with the plane(s) whose traced
    relation it changes (§5.3). *)

val children : Graph.t -> Plane.id -> Vid.t -> Vid.t list
(** Traced children of a vertex under a plane's relation, as a fresh
    list — cold paths only. Free vertices have no traced children.
    External requesters ([None] entries of [requested]) contribute
    nothing. *)

val iter_children : Graph.t -> Plane.id -> Vid.t -> (Vid.t -> unit) -> unit
(** Visit the traced children in {!children} order. Does not allocate. *)

val child_slots : Vertex.t -> Plane.id -> int
(** The number of child slots of a vertex under a plane's relation (0
    for a free vertex): a loop over [0 .. child_slots - 1] with
    {!child_at} visits the traced children in {!children} order, with no
    closure. *)

val child_at : Vertex.t -> Plane.id -> int -> int
(** The traced child in slot [i], or [-1] when the slot holds none (an
    external requester, or under M_T an arg that is a req-arg). *)

val child_priority_of : Vertex.t -> int -> Vid.t -> int
(** {!child_priority} given the parent's handle. *)

val child_priority : Graph.t -> Vid.t -> int -> Vid.t -> int
(** [child_priority g v prior c] is the priority a [mark2] task spawned
    from [v] (being marked at [prior]) onto [c] must carry:
    [min prior (request-type c v)] (Fig 5-1). *)
