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

val stale : Graph.t -> int -> reduction -> bool
(** A reduction task records the graph's generation ({!Graph.releases})
    when it is sent. [stale g gen r]: was one of its endpoints released
    since, i.e. is an endpoint's slot generation ({!Graph.gen}) above
    [gen]? A stale task addresses a vertex that no longer exists
    (Property 6's irrelevant tasks, and responses and cancels to and
    from reclaimed vertices); it is dropped where it is next handled. *)

val no_gen : int
(** [-1], recorded by tasks sent outside the engine: never stale. *)

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

(** {2 Mark lanes}

    On the wire a mark is three ints, not a {!mark}: [v], the target
    vertex ([-1] for a return); [par], the parent vid ([-1] for
    [Rootpar]); and [meta], which packs the kind, the plane, the M_R
    priority (0-3) and the wave. Handlers emit lanes, and frames and
    pools carry them, so sending a mark allocates nothing.
    {!mark} is the view tests, printers and invariants read;
    {!mark_of_lanes} and the three [lane_*] functions convert between
    the two. *)

type sink = int -> int -> int -> unit
(** Receives one mark as [v par meta]. *)

val kind_mark1 : int
val kind_mark2 : int
val kind_mark3 : int
val kind_return : int

val meta : kind:int -> plane:Plane.id -> prior:int -> ep:int -> int
(** Raises [Invalid_argument] for a negative wave or a prior outside 0-3.
    The result is never negative. *)

val meta_kind : int -> int
val meta_plane : int -> Plane.id
val meta_prior : int -> int
val meta_ep : int -> int

val is_return : int -> bool
(** Is this the meta of a [Return]? *)

val lanes_exec_vid : int -> int -> int -> int
(** {!exec_vid} of a mark in lanes: [par] for a return, else [v]. *)

val lane_v : mark -> int
val lane_par : mark -> int
val lane_meta : mark -> int

val mark_of_lanes : int -> int -> int -> mark
(** The view of [v par meta]; inverse of the three [lane_*] functions. *)

val obs_kind_of_meta : int -> Dgr_obs.Event.task_kind

(** {2 Reduction lanes}

    A reduction is a row of ints from its send to its execution: [head],
    which packs the kind, the demand and the value's tag and is always
    negative; [src], the source vertex ([-1] for a request with no
    requester); [dst], the destination ([-1] for the controller); [key];
    and [pay], the value's payload (an int, a bool as 0/1, a vid; 0 when
    there is none). A [V_err]'s string travels beside the row, as the
    [err] of a {!red_sink} (the empty string otherwise): each store that
    holds rows keeps its own strings, written by the one shard that owns
    the store. {!reduction} is the cold boxed view; {!reduction_of_lanes}
    and the [red_*] getters convert. *)

type red_sink = int -> int -> int -> int -> int -> string -> unit
(** Receives one reduction as [head src dst key pay err]. *)

val red_request : int
val red_respond : int
val red_cancel : int

val v_err : int
(** The value tag of a [V_err]: its row's [pay] is 0, or, in a store,
    the index of its string. *)

val head : kind:int -> demand:Demand.t -> vtag:int -> int
(** Never non-negative, so a lane holding a head is never a mark's meta. *)

val head_kind : int -> int
val head_demand : int -> Demand.t
val head_vtag : int -> int

val red_lanes : int
(** A reduction's width in a frame: [src dst head key pay gen stamp],
    [gen] its send generation and [stamp] its lineage ticket. The head
    sits in lane 2, where a mark (three lanes) has its meta, so a frame's
    reader tells the two apart there. *)

val value_of_lanes : int -> int -> string -> Label.value
(** [value_of_lanes vtag pay err]. Allocates only a [V_int], [V_ref] or
    [V_err] block. *)

val label_vtag : Label.t -> int
val label_pay : self:Vid.t -> Label.t -> int
val label_err : Label.t -> string
(** The value lanes of a vertex [self] whose label [l] is in weak head
    normal form ([V_ref self] for [Cons]), built without the value.
    [label_vtag] raises [Invalid_argument] for any other label. *)

val reduction_of_lanes : int -> int -> int -> int -> int -> string -> reduction
(** The view of [head src dst key pay err]. *)

val red_head : reduction -> int
val red_src : reduction -> int
val red_dst : reduction -> int
val red_key : reduction -> int
val red_pay : reduction -> int
val red_err : reduction -> string
(** The lanes of a view; inverse of {!reduction_of_lanes}. A cancel's
    key lane is [-1]. *)

val reduction_of_row : int array -> int -> string -> reduction
(** [reduction_of_row a i err]: the view of the frame row at lane [i] of
    [a] (see {!red_lanes}). *)

val stale_lanes : Graph.t -> int -> int -> int -> bool
(** [stale_lanes g gen src dst]: {!stale} of a reduction given its two
    endpoint lanes. *)

val obs_kind_of_head : int -> Dgr_obs.Event.task_kind

val pp : Format.formatter -> t -> unit

val pp_mark : Format.formatter -> mark -> unit

val pp_reduction : Format.formatter -> reduction -> unit

val to_string : t -> string
