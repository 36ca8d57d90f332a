open Dgr_graph

(** State of one marking process (an instance of M_R or M_T).

    The paper detects termination with a dummy [rootpar] vertex and a
    [done] flag; we generalize the flag to a count of outstanding seeds so
    that M_T can be started from every task endpoint at once (the paper's
    [troot] / [taskroot_i] construction collapses to "one seed per
    endpoint, all crediting rootpar").

    A run is pinned to the wave ([Graph.wave]) that was current when it
    was created; every task it spawns carries that wave, and tasks from
    another wave must never be credited to it (the executor drops them).
    The execution counters are per-PE cells, so each PE counts only its
    own executions; only the totals are meaningful. The seed count and
    [finished] flag are still scalar — they are only touched at the step
    barrier (returns to [Rootpar] are controller tasks). *)

type variant = Basic | Priority | Tasks
(** Which mark task drives this run: [Basic] = mark1 (Fig 4-1),
    [Priority] = mark2 / M_R (Fig 5-1), [Tasks] = mark3 / M_T (Fig 5-3). *)

type t = {
  graph : Graph.t;
  plane : Plane.id;
  variant : variant;
  wave : int;  (** the [Graph.wave] this run marks under *)
  metas : int array;
      (** the lane metas of the run's mark task, indexed by priority 0-3
          ({!metas_of}) *)
  return_meta : int;  (** the lane meta of a return on the run's plane and wave *)
  mutable outstanding_seeds : int;
  mutable finished : bool;
  marks_executed : int array;  (** per-PE; read via {!marks_total} *)
  returns_executed : int array;  (** per-PE *)
  mutable coop_spawns : int;  (** mark tasks spawned by cooperating mutators *)
  mutable coop_closure : int;  (** vertices marked synchronously by closure cooperation *)
}

val create : Graph.t -> variant -> t
(** A run with no seeds; [finished] is false until seeds are added and all
    have returned. The plane is implied by the variant ([Tasks] -> M_T,
    others -> M_R); the wave is captured from the graph, so create the
    run right after [Graph.reset_plane] opened its wave. *)

val plane_of_variant : variant -> Plane.id

val metas_of : variant -> wave:int -> int array
(** The lane metas ({!Dgr_task.Task.meta}) of the variant's mark task
    under [wave], indexed by priority 0-3: mark1, mark2 at that
    priority, or mark3. The priority-less variants repeat one meta.
    Handlers pass this array to the [Vertex] transitions, so a spawned
    child's meta is an array read, not an encoding. *)

val prior_in : int array -> int -> int
(** [prior_in metas meta] is the priority at which [meta] appears in a
    {!metas_of} array (the lowest, for the priority-less variants), or
    [-1]: one comparison per priority fixes a mark's kind, plane, wave
    and priority, so a handler's own marks need no decoding. *)

val marks_total : t -> int

val seed_added : t -> unit
(** Record that a seed mark task (with parent [Rootpar]) was spawned. *)

val seed_returned : t -> unit
(** A [Return] reached [Rootpar]; the run finishes when the count drops to
    zero. *)

val check_trivially_finished : t -> unit
(** A run seeded with zero seeds is immediately finished. *)

val pp : Format.formatter -> t -> unit
