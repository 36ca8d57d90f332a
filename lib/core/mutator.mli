open Dgr_graph
open Dgr_task

(** Cooperating mutator primitives (Fig 4-2 and §5.3).

    Every connectivity mutation performed by the reduction process goes
    through this module so that the marking invariants (§5.4.1) are
    preserved while marking is in progress:

    + for each transient vertex, there is at least one mark task spawned
      on each of its (traced) children, and mt-cnt reflects this;
    + a marked vertex never points to an unmarked (traced) child;
    + mt-cnt(v) counts exactly the unreturned mark tasks spawned from v.

    Cooperation is {e plane-relative} (§5.3): a mutation cooperates only
    with the marking runs whose traced relation it changes. Mutations of
    [args] concern M_R (and usually M_T, since an un-requested arg is in
    M_T's relation); mutations of [requested] and of the req-args sets
    concern only M_T.

    Two cooperation mechanisms are used:

    - the {b witness} protocol of Fig 4-2 (for [add-reference], whose new
      edge [a→c] is covered by the adjacent witness [b]); and
    - a {b generic} protocol for non-adjacent new edges ([add_edge],
      [record_request], …): if the edge's parent is transient, spawn a
      mark task on the child charged to the parent (valid by invariant 1);
      if the parent is already marked, synchronously mark the child's
      unmarked component (a bounded form of the paper's [mark(g)] in
      [expand-node]) so invariant 2 is never violated.

    A mutator with no active runs degenerates to plain graph edits.

    {b Deferred cooperation} (sharded engine): cooperation closures mark
    vertices anywhere in the graph, so running them inside a PE's budget
    would let one PE write another's vertices mid-step, and the result
    would depend on PE order. With a defer sink installed
    ({!set_defer}), the owner-local graph edit proceeds immediately but
    the cooperation body is captured as a {!coop_event} instead of run;
    the engine replays the events serially at the step barrier, in
    deferring-PE order, via {!replay}. Late evaluation is sound because
    the marking invariants are only consumed at barriers and a parent's
    plane state only advances (unmarked → transient → marked) within a
    step. *)

type coop_event =
  | Ev_tree_edge of { run : Run.t; parent : Vid.t; child : Vid.t }
      (** generic cooperation for new traced edge parent→child *)
  | Ev_witness of { run : Run.t; a : Vid.t; b : Vid.t; c : Vid.t }
      (** Fig 4-2 witness protocol for add-reference on M_R *)
  | Ev_flood_edge of { fl : Flood.t; parent : Vid.t; child : Vid.t }
      (** flood-scheme cooperation for new traced edge parent→child *)

type t = {
  graph : Graph.t;
  mutable active : Run.t list;  (** tree-scheme runs in their mark phase *)
  mutable active_flood : Flood.t list;  (** flood-scheme runs in flight *)
  mutable spawn : Task.sink;  (** asynchronous mark injection, as lanes *)
  mutable coop_pe : unit -> int;
      (** the PE a cooperation spawn is charged to (flood counters) *)
  mutable defer : (coop_event -> unit) option;
      (** when set, cooperation bodies are captured instead of run *)
  mutable on_connect : Vid.t -> Vid.t -> unit;  (** parent, child — RC hook *)
  mutable on_disconnect : Vid.t -> Vid.t -> unit;
  mutable recorder : Dgr_obs.Recorder.t option;
      (** trace sink for cooperation events ([Coop_spawn]/[Coop_closure]);
          [None] (the default) records nothing *)
  mutable guard : Vid.t -> unit;
      (** called with the vertex about to be mutated, before every
          edge-set mutation ([connect]/[disconnect]/request bookkeeping).
          Default [ignore]; {!Dgr_core.Invariants.ownership_guard}
          installs the debug ownership-discipline check here. *)
  mutable stk : int array;
      (** scratch stack for the synchronous marking closures — (vid,
          prior) pairs interleaved, reused across calls *)
  mutable stk_n : int;
  mutable stk_sink : Task.sink;
      (** pushes [(v, prior)] from a mark [v _ prior]: the [emit] of the
          closure visits ([Vertex.mark_flood], [Vertex.mark_closure]) *)
}

val create :
  ?on_connect:(Vid.t -> Vid.t -> unit) ->
  ?on_disconnect:(Vid.t -> Vid.t -> unit) ->
  ?recorder:Dgr_obs.Recorder.t ->
  spawn:Task.sink ->
  Graph.t ->
  t

val set_active : t -> Run.t list -> unit

val set_active_flood : t -> Flood.t list -> unit

val set_defer : t -> (coop_event -> unit) option -> unit
(** Install (or clear) the deferral sink. While set, every cooperation
    a mutation would run is handed to the sink instead. *)

val replay : t -> coop_event -> unit
(** Run one deferred cooperation body against the {e current} plane
    state. Call serially, in deferring-PE order, with {!field-coop_pe}
    answering the deferring PE. *)

(** {1 The paper's three primitives (Fig 4-2)} *)

val delete_reference : t -> a:Vid.t -> b:Vid.t -> unit
(** Remove [b] from [children(a)]. Never requires cooperation. *)

val add_reference : t -> a:Vid.t -> b:Vid.t -> c:Vid.t -> unit
(** Add [c] to [children(a)], where [b ∈ children(a)] and
    [c ∈ children(b)] (checked). Witness cooperation for M_R runs, generic
    cooperation for M_T runs. *)

val expand_node : t -> a:Vid.t -> entry:Vid.t -> unit
(** Splice a freshly-built subgraph rooted at [entry] below [a]: [a]'s
    current args are disconnected (the subgraph is expected to reference
    the ones it needs — wire it with [connect_fresh] {e before} calling
    this) and replaced by the single child [entry]. Cooperation follows
    Fig 4-2: if [a] is marked the subgraph is marked (by closure), if
    transient a mark task is spawned on the new child. *)

(** {1 Generalized mutations used by the reduction process} *)

val connect_fresh : t -> parent:Vid.t -> child:Vid.t -> unit
(** Wire an edge inside a not-yet-reachable subgraph under construction.
    The caller asserts [parent] is unmarked in every active plane (it was
    just taken from the free list); no cooperation is performed. *)

val add_edge : ?demand:Demand.t -> t -> a:Vid.t -> c:Vid.t -> unit
(** Add the (possibly non-adjacent) edge [a→c], optionally recording it as
    a vital/eager request by [a]; generic cooperation on all active
    planes. *)

val record_request : t -> at:Vid.t -> who:int -> demand:Demand.t -> key:Vid.t -> unit
(** Add a requester to [requested(at)] — a new M_T edge [at→who];
    generic cooperation on active M_T runs. [who] is its row code: the
    vid, or [-1] for the external requester. *)

val answer : t -> at:Vid.t -> who:int -> unit
(** Remove a requester from [requested(at)] (edge deletion — no
    cooperation). [who] is its row code: the vid, or [-1] for the
    external requester. *)

val request_child : t -> v:Vid.t -> c:Vid.t -> demand:Demand.t -> unit
(** Record [c ∈ req-args(v)] (removes [v→c] from M_T's relation — no
    cooperation). *)

val drop_request_child : t -> v:Vid.t -> c:Vid.t -> unit
(** Dereference: remove [c] from [req-args(v)] while keeping the arg —
    [v→c] re-enters M_T's relation, so M_T cooperation applies. *)
