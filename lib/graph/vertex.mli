(** Vertices of the computation graph.

    Each vertex carries the edge sets of the paper's abstract model (§2.1):

    - [args v]: ordered data-dependency children;
    - [req-args_v v] / [req-args_e v]: the disjoint subsets of [args]
      whose values have been vitally / eagerly requested by [v];
    - [requested v]: the vertices that have requested [v]'s value and not
      yet been answered (each recorded with the demand kind, plus [None]
      for the distinguished initial task [<-,root>]).

    It also carries the reduction engine's per-vertex bookkeeping (values
    received so far) and the two marking planes (see {!Plane}).

    {!t} is an opaque handle into a struct-of-arrays store: fixed-width
    state (label, pe, free, birth, gen, sched_prior, planes) lives in parallel
    columns owned by the graph's storage chunks; the variable-width edge
    sets live in flat per-slot rows that are recycled — capacity intact —
    when the slot returns to the free list. All access goes through the
    accessors and iterators below; the [iter_*] forms do not allocate.

    Mutations of [args] must go through the cooperating mutator
    primitives in [Dgr_core.Mutator]; the raw [connect]/[disconnect]
    operations here are the paper's non-cooperating graph edits. *)

(** {1 Marking planes} *)

(** The types of the per-vertex marking state, re-exported as
    [Dgr_graph.Plane].

    Each vertex carries two independent planes — one for M_R (marking from
    the root) and one for M_T (marking from tasks) — because deadlock
    detection compares the two results (DL' = R'_v − T', §5.4) and the
    paper requires their bits to be distinct (§5.2).

    A plane holds the tri-state colour (unmarked / transient / marked,
    §4.1), the outstanding-mark-task counter [mt-cnt], the marking-tree
    parent [mt-par], and — for M_R only — the priority with which the
    vertex was traced (3 = vital, 2 = eager, 1 = reserve; §5.1). The
    state lives in struct-of-arrays columns owned by the graph's storage
    chunks. It is read through {!color}, {!cnt}, {!par_vid}, {!prior}
    and the colour tests below, and written only by this unit's marking
    transitions ({!mark_tree}, {!return_tree}, {!mark_flood}, {!charge},
    {!mark_closure}), {!reset_for_free} and {!Cells.restore}. A chunk's
    planes reset in O(1) ([Graph.reset_plane]): the chunk carries a
    per-slot epoch column and a current-epoch counter, a reset bumps the
    counter, stale slots read as pristine, and a slot is lazily re-zeroed
    the first time the new wave writes it. *)
module Plane : sig
  type color = Unmarked | Transient | Marked

  type parent = Rootpar | Parent of Vid.t
  (** [Rootpar] is the paper's dummy node used by [return1] to detect
      termination of the whole marking process. *)

  type id = MR | MT

  val parent_of_vid : int -> parent
  (** [-1] (any negative) is [Rootpar]. *)

  val vid_of_parent : parent -> int

  val pp_parent : Format.formatter -> parent -> unit

  val pp_id : Format.formatter -> id -> unit
end

type requester = Vid.t option
(** [None] is the external origin of the initial task [<-,root>]. *)

type request_entry = {
  who : requester;
  demand : Demand.t;
  key : Vid.t;
      (** the requester's own arg this request resolves (tasks carry it as
          correlation state; see [Dgr_task.Task]) *)
}

type t
(** An opaque vertex handle: column set + slot offset + the slot's rows.
    Handles are allocated once per slot and alias the store — copying one
    is cheap and never copies state. *)

(** {1 Store plumbing (used by [Graph])} *)

type cols
(** One storage chunk's fixed-width columns (including both plane column
    sets). *)

val make_cols : int -> cols
(** Pristine columns for [n] slots. *)

val empty_cols : cols

val reset_plane_cols : cols -> Plane.id -> unit
(** Column-wise bulk reset of one plane over a whole chunk. *)

val attach : Vid.t -> off:int -> cols -> pe:int -> Label.t -> t
(** Bind a fresh handle to slot [off] of a chunk, labelling it and
    assigning its PE. Rows start empty. *)

val create : Vid.t -> pe:int -> Label.t -> t
(** A standalone vertex backed by its own single-slot chunk (tests). *)

val pe_column : cols -> int array
(** The chunk's PE column: slot [off]'s {!pe} is at [off]. [Graph] caches
    it beside the chunk, so its per-send lookup ([Graph.pe]) is an array
    read. Read-only outside this unit; it never moves. *)

(** {1 Scalar state} *)

val id : t -> Vid.t

val label : t -> Label.t

val set_label : t -> Label.t -> unit

val pe : t -> int
(** Owning processing element. *)

val set_pe : t -> int -> unit

val free : t -> bool
(** True while the vertex sits on the free list. *)

val set_free : t -> bool -> unit

val birth : t -> int
(** The graph epoch (engine step) this slot was last allocated in; the
    ownership checker exempts same-epoch vertices, which only their
    allocating PE can reach. *)

val set_birth : t -> int -> unit

val sched_prior : t -> int
(** Last priority assigned by a completed M_R cycle (3 = vital, 2 =
    eager, 1 = reserve); 0 until first classified. Survives plane resets
    so PE pools can order tasks between cycles (§3.2). *)

val set_sched_prior : t -> int -> unit

val seed_stamp : t -> int
(** The graph wave number that last added this vertex to an M_T seed
    set; compared against [Graph.wave] for O(1) per-wave seed dedup.
    Not checkpointed — the wave counter never decreases, so a stale
    stamp can only cause a harmless duplicate seed check. *)

val set_seed_stamp : t -> int -> unit

val gen : t -> int
(** The slot's generation: the graph's release count when
    [Graph.release] last freed it, 0 before; copied by checkpoints (see
    [Task.stale]). *)

val set_gen : t -> int -> unit

(** {1 Plane state} *)

val color : t -> Plane.id -> Plane.color

val cnt : t -> Plane.id -> int
(** mt-cnt: spawned-but-unreturned mark tasks. *)

val par_vid : t -> Plane.id -> int
(** mt-par, the parent in the marking tree, as a vid: [-1] for
    [Rootpar] (see {!Plane.parent_of_vid}). *)

val prior : t -> Plane.id -> int
(** 0 when unmarked; 1..3 once traced (M_R). *)

val unmarked : t -> Plane.id -> bool

val transient : t -> Plane.id -> bool

val marked : t -> Plane.id -> bool

(** {1 args} *)

val args : t -> Vid.t list
(** The ordered data-dependency children, as a freshly built list — cold
    paths only; hot paths use {!iter_args}/{!arg}. *)

val set_args : t -> Vid.t list -> unit

val iter_args : t -> (Vid.t -> unit) -> unit
(** Visit the args in order. Does not allocate. *)

val arg : t -> int -> Vid.t
(** The [i]-th arg. Raises [Invalid_argument] out of bounds. *)

val has_arg : t -> Vid.t -> bool

val arg_count : t -> int

val connect : t -> Vid.t -> unit
(** Append a child to [args] (paper's [connect(a,b)]); duplicates allowed —
    [args] is a multiset in the presence of e.g. [x + x]. Amortized O(1). *)

val disconnect : t -> Vid.t -> unit
(** Remove one occurrence of the child from [args] and from any [req-args]
    set it appears in (paper's [disconnect(a,b)]). No-op if absent. *)

(** {1 req-args} *)

val req_v : t -> Vid.t list

val req_e : t -> Vid.t list

val req_args : t -> Vid.t list
(** [req_v @ req_e] — the paper's req-args(v). *)

val req_count : t -> int
(** |req-args(v)|, without building the list. *)

val req_arg_at : t -> int -> Vid.t
(** The [i]-th element of {!req_args}, [0 <= i < req_count], without
    building the list. Raises [Invalid_argument] out of bounds. *)

val is_req_arg : t -> Vid.t -> bool
(** Membership in req-args(v). *)

val unrequested_args : t -> Vid.t list
(** args(v) − req-args(v): children not yet demanded (reserve paths). *)

val request_arg : t -> Vid.t -> Demand.t -> unit
(** Record that [v] demanded a child with the given kind. Upgrades an
    eager record to vital when re-requested vitally; never downgrades. *)

val drop_request : t -> Vid.t -> unit
(** Remove a child from both req-args sets (dereference, §3.2) — the child
    stays in [args] unless also disconnected. *)

val request_type : t -> Vid.t -> int
(** The paper's [request-type(c,v)] (Fig 5-1): 3 if [c] is vitally
    requested by [v], 2 if eagerly requested, 1 otherwise. *)

(** {1 requested} *)

val requested : t -> request_entry list
(** The pending requesters as a freshly built list — cold paths only. *)

val requested_count : t -> int

val requester : t -> int -> int
(** The vid of the [i]-th [requested] entry (append order), [-1] for the
    external requester. Raises [Invalid_argument] out of bounds. *)

val blit_requests : t -> int array -> int
(** Copy the raw request rows into [dst] — stride 3 per entry: requester
    vid ([-1] for the external entry), demand code (0 eager / 1 vital),
    key — in storage (oldest-first) order; {!requested} is this reversed.
    [dst] must hold [3 * requested_count t] cells. Returns the entry
    count. Lets hot callers snapshot the set into a reusable scratch
    buffer instead of building the entry list. *)

val add_requester : t -> requester -> demand:Demand.t -> key:Vid.t -> unit
(** Add to [requested v]. Entries are identified by [(who, key)] — the
    same requester may legitimately await [v] through two different args.
    A vital request upgrades an existing eager entry. *)

val add_who : t -> int -> demand:Demand.t -> key:Vid.t -> unit
(** {!add_requester} of the requester whose row code is given: its vid,
    or [-1] for the external requester. *)

val remove_who : t -> int -> unit
(** Remove every entry of the requester whose row code is [w] — its
    vid, or [-1] for the external requester: it dereferenced [v], or was
    answered on all its keys. Does not allocate. *)

val retain_requesters : t -> (Vid.t -> bool) -> unit
(** Keep only entries whose requester satisfies the predicate; external
    ([None]) entries are always kept. In-place, order-preserving. *)

val clear_requesters : t -> unit

val has_requester : t -> requester -> bool
(** Does not allocate. *)

val has_request_entry : t -> requester -> Vid.t -> bool
(** Entry-level membership (same [(who, key)] identity as
    [add_requester]). Does not allocate. *)

val has_who_entry : t -> int -> Vid.t -> bool
(** {!has_request_entry} of a row code. *)

val has_vital_requester : t -> bool
(** True when some pending entry carries vital demand — the vertex is
    globally vital. Does not allocate. *)

(** {1 Received values} *)

val record_value : t -> from:Vid.t -> Label.value -> unit

val recv_index : t -> Vid.t -> int
(** The row holding the value received from [c], or [-1] if none has
    arrived. Does not allocate. *)

val recv_value : t -> int -> Label.value
(** The value in row [i] (a {!recv_index} result). Raises
    [Invalid_argument] out of bounds. *)

val has_value : t -> Vid.t -> bool
(** [recv_index t c >= 0]. *)

val recv : t -> (Vid.t * Label.value) list
(** Values received so far, newest first — cold paths only. *)

val clear_reduction_state : t -> unit
(** Reset the received values (used when a vertex is re-expanded or
    freed). *)

(** {1 Traced children and the marking transitions}

    The per-slot steps of both marking schemes live here, beside the
    plane columns and rows they read, so that one mark costs one call
    into this unit plus one [emit] per spawned child. A handler passes
    its child mark metas as [metas], indexed by priority 0-3 (the lane
    metas of [Dgr_task.Task]; this unit never decodes them), and its
    return meta as [ret]; [emit c par meta] receives each spawned mark
    as lanes ([c = -1] for a return). *)

val child_slots : t -> Plane.id -> int
(** The number of child slots of a vertex under a plane's relation (0
    for a free vertex): a loop over [0 .. child_slots - 1] with
    {!child_at} visits the traced children in order, with no closure.
    M_R traces the args (§5.1); M_T traces the requesters, newest first,
    then the args that are not req-args (§5.2). *)

val child_at : t -> Plane.id -> int -> int
(** The traced child in slot [i], or [-1] when the slot holds none (an
    external requester, or under M_T an arg that is a req-arg). *)

val child_priority : t -> int -> Vid.t -> int
(** [child_priority v prior c] is the priority a mark spawned from [v]
    (being marked at [prior]) onto [c] carries:
    [min prior (request-type c v)] (Fig 5-1). *)

val mark_tree :
  t ->
  Plane.id ->
  par:int ->
  prior:int ->
  metas:int array ->
  ret:int ->
  emit:(int -> int -> int -> unit) ->
  unit
(** Execute a marking-tree mark with parent [par] ([-1] for [Rootpar]):
    mark1/mark3 at [prior] 0 (Figs 4-1, 5-3), mark2 at [prior] 1-3
    (Fig 5-1, including [modify]'s re-mark at a higher priority). A
    free target, or one already traced at [prior] or higher, returns at
    once. *)

val return_tree : t -> Plane.id -> ret:int -> emit:(int -> int -> int -> unit) -> unit
(** [return1] (Fig 4-1) arriving at this vertex. Raises
    [Invalid_argument] when its mt-cnt is already 0. *)

val mark_flood :
  t -> Plane.id -> prior:int -> metas:int array -> emit:(int -> int -> int -> unit) -> int
(** The flood visit (§6): mark a live vertex not yet marked at [prior]
    or higher (0: marked at all) and spawn a mark, parent lane [-1], on
    each traced child. Returns the number spawned, or [-1] when the
    visit changed nothing. *)

val charge : t -> Plane.id -> unit
(** Count one more outstanding mark task on the vertex's mt-cnt: the
    cooperating mutator's spawn charged to a transient parent (invariant
    1, Fig 4-2). *)

val mark_closure :
  t -> Plane.id -> prior:int -> metas:int array -> emit:(int -> int -> int -> unit) -> int
(** One visit of the cooperating mutator's synchronous closure (§5.3):
    an unmarked live vertex is marked at [prior], owing no returns, and
    spawns a mark, parent lane [-1], on each traced child. Returns the
    number spawned, or [-1] when the vertex is free or not unmarked (a
    transient vertex is left to its own marking subtree). *)

(** {1 Lifecycle} *)

val reset_for_free : t -> unit
(** Wipe every field for return to the free list, both planes to the
    pristine unmarked state. Row capacities are retained for the slot's
    next life. *)

(** {1 Checkpointing} *)

(** Flat boxed copies of one slot's full state: capture/compare/restore
    without exposing the row layout (used by [Checkpoint]). *)
module Cells : sig
  type shot

  val capture : t -> shot

  val recapture : shot -> t -> unit
  (** [recapture s v] refreshes [s] with [v]'s current state in place,
      reusing the shot's row arrays when lengths match — the
      low-allocation form of {!capture} for incremental re-syncs. *)

  val matches : shot -> t -> bool

  val restore : shot -> t -> unit
end

(** {1 Introspection} *)

val args_capacity : t -> int
(** Current capacity of the args row (tests observe recycling). *)

val pp : Format.formatter -> t -> unit
