(* shared graph vocabulary *)
open Dgr_graph

(** Tasks — the smallest unit of work (§2.1).

    A task [<s,d>] is "a message from one vertex to another": it is spawned
    at a source vertex and executes atomically at its destination vertex.
    Two processes coexist (§4): the {e reduction process} (program
    execution) and the {e marking processes} (M_R and M_T). Their tasks
    share the same transport (PE task pools and the network) but are
    distinguished here so that pools can prioritize them and the marking
    controller can find "the set of all tasks" when seeding M_T.

    Besides the [<s,d>] pair, tasks carry "other information that does not
    concern us here" (§2.1 footnote 2); concretely our requests and
    responses carry a correlation [key] — the requester's own [args] child
    that the exchange resolves — so that demand forwarded through [Ind]
    chains can be matched up by the requester when the value comes back
    from a different vertex than the one it is adjacent to. *)

type reduction =
  | Request of { src : Vertex.requester; dst : Vid.t; demand : Demand.t; key : Vid.t }
      (** [<s,d>] in quest of [d]'s value. [src = None] only for the
          distinguished initial task [<-,root>]. [key] is the arg of [src]
          this request resolves (= the original destination before any
          forwarding). *)
  | Respond of {
      src : Vid.t;
      dst : Vertex.requester;
      value : Label.value;
      key : Vid.t;
      demand : Demand.t;  (** the demand of the request being answered *)
    }
      (** [d]'s value travelling back to a requester; [dst = None] delivers
          the overall result of the computation. *)
  | Cancel of { src : Vid.t; dst : Vid.t }
      (** [src] dereferences [dst] (§3.2): on execution [src] is removed
          from [requested(dst)]. Spawned when speculation is resolved
          against a branch. *)

(** Mark tasks carry the wave ([Graph.wave]) that spawned them ([ep]):
    with overlapping cycles a task can outlive its wave in a pool or in
    flight, and the executor drops any task whose [ep] is not the
    handler's current wave. Marks from different waves are therefore
    distinct tasks even when every other field matches. *)
type mark =
  | Mark1 of { v : Vid.t; par : Plane.parent; ep : int }
      (** Fig 4-1 basic algorithm (runs on the M_R plane). *)
  | Mark2 of { v : Vid.t; par : Plane.parent; prior : int; ep : int }
      (** Fig 5-1, process M_R: priority-carrying marking from the root. *)
  | Mark3 of { v : Vid.t; par : Plane.parent; ep : int }
      (** Fig 5-3, process M_T: marking from tasks through
          [requested ∪ (args − req-args)]. *)
  | Return of { plane : Plane.id; par : Plane.parent; ep : int }
      (** Fig 4-1 [return1], shared by all three mark tasks; [par =
          Rootpar] signals termination to the controller. *)

type t = Reduction of reduction | Marking of mark

val exec_vertex : t -> Vid.t option
(** The vertex at which the task executes — determines the owning PE.
    [None] for tasks addressed to the controller ([Respond] to the
    external requester; [Return] to [Rootpar]). *)

val exec_vid : t -> int
(** [exec_vertex] without the option box, for per-send hot paths: the
    vid, or [-1] for controller-addressed tasks. *)

val reduction_endpoints : reduction -> Vid.t list
(** Source and destination vertices of a reduction task — the seeds
    contributed to [args(taskroot_i)] when M_T starts (§5.2). *)

val iter_reduction_endpoints : (Vid.t -> unit) -> reduction -> unit
(** [reduction_endpoints] without the list: applies [f] to each endpoint
    (source first). Hot path — M_T seeding visits every pending task. *)

val reduction_endpoint_exists : (Vid.t -> bool) -> reduction -> bool
(** Does any endpoint satisfy the predicate? Allocation-free; used by
    per-step task purges. *)

val plane_of_mark : mark -> Plane.id
(** The marking plane a mark task operates on: M_R for [Mark1]/[Mark2],
    M_T for [Mark3], the carried plane for [Return]. *)

val mark_ep : mark -> int
(** The wave that spawned the task (see the {!mark} doc). *)

val obs_kind : t -> Dgr_obs.Event.task_kind
(** The trace-event kind a task maps to (observability layer). *)

val is_marking : t -> bool

val is_reduction : t -> bool

val request : ?src:Vid.t -> ?key:Vid.t -> Vid.t -> Demand.t -> t
(** [request dst demand] with [key] defaulting to [dst]. *)

val respond : src:Vid.t -> key:Vid.t -> ?demand:Demand.t -> Vertex.requester -> Label.value -> t
(** [demand] defaults to [Vital]. *)

val pp : Format.formatter -> t -> unit

val pp_mark : Format.formatter -> mark -> unit

val pp_reduction : Format.formatter -> reduction -> unit

val to_string : t -> string
