open Dgr_graph
open Dgr_task

(** The reduction process (§2.1) — demand-driven task semantics.

    Each reduction task executes atomically at its destination vertex:

    - a [Request <s,v>] on a WHNF vertex answers immediately; on an
      operator vertex it records [s ∈ requested(v)] and (on first demand)
      spawns requests on the operator's arguments — vitally for strict
      positions, eagerly for the speculated branches of [If] (§3.2);
    - an [Apply] vertex is reduced by instantiating the function's
      template from the free list and splicing it in with the paper's
      [expand-node] primitive, after which the vertex forwards demand as
      an indirection;
    - a [Respond] carrying the predicate's value resolves an [If]: the
      losing branch is dereferenced — [delete-reference] plus a [Cancel]
      task — which is precisely how irrelevant tasks and garbage arise;
    - when a strict operator has all argument values it rewrites its
      vertex to the result value, answers every requester, and drops its
      argument references (the graph "contracts", §2).

    Type errors, arity mismatches, division by zero, [head nil] and
    [Bottom] all behave as ⊥: the vertex never answers. Such vertices are
    exactly what M_T ∘ M_R later reports as deadlocked (Property 2'),
    which the tests exercise.

    All mutations go through the {!Dgr_core.Mutator} cooperation layer so
    reduction can run concurrently with marking. *)

type t = {
  graph : Graph.t;
  mut : Dgr_core.Mutator.t;
  templates : Template.registry;
  send : Task.red_sink;  (** every task it spawns, as lanes *)
  speculate_if : bool;
  speculation_reserve : int;
  recorder : Dgr_obs.Recorder.t option;
      (** trace sink for allocation stalls and expansions *)
  parked : int Dgr_util.Vec.t;
      (** allocation-stalled expansions awaiting free-list replenishment,
          {!park_lanes} ints each: the very lanes {!execute} was handed,
          [head src dst key], then the graph generation the request
          parked in. They are still part of "the set of all tasks" for
          M_T. The engine re-sends them with {!iter_parked_rows}, then
          clears the buffer. A request whose endpoint is released while
          it waits is stale ({!Task.stale}), and the retry drops it. *)
  mutable result : Label.value option;  (** the root's value, once delivered *)
  mutable requests_executed : int;
  mutable responds_executed : int;
  mutable cancels_executed : int;
  mutable expansions : int;  (** Apply reductions performed *)
  mutable rewrites : int;  (** vertices rewritten to values / indirections *)
  mutable stale_dropped : int;  (** tasks dropped as stale/irrelevant *)
  mutable alloc_stalls : int;
      (** expansions deferred because the free list could not supply the
          template (V is finite, §2.2; the task is retried) *)
  mutable stuck : (Vid.t * string) list;
      (** runtime errors turned into ⊥, newest first, one per vertex *)
  mutable stuck_set : (Vid.t, unit) Hashtbl.t option;
      (** the vertices of [stuck], indexed from the first one on *)
  mutable rq_scratch : int array;
      (** reusable raw snapshot of one vertex's request rows (see
          [Vertex.blit_requests]) — keeps the rewrite paths allocation-free *)
  mutable vids : int array;  (** scratch for one template expansion's slot vids *)
}

val create :
  ?speculate_if:bool ->
  ?speculation_reserve:int ->
  ?recorder:Dgr_obs.Recorder.t ->
  graph:Graph.t ->
  mut:Dgr_core.Mutator.t ->
  templates:Template.registry ->
  send:Task.red_sink ->
  unit ->
  t
(** [speculate_if] (default true) controls eager evaluation of both [If]
    branches — the paper's source of eager/irrelevant/reserve tasks.
    With it off, evaluation is purely demand-driven (lazy).
    [speculation_reserve] (default 0) is the number of heap slots an
    eager/reserve-class expansion must leave free, so speculation cannot
    allocate the vital computation out of memory. *)

val execute : t -> int -> int -> int -> int -> int -> string -> unit
(** [execute t head src dst key pay err]: execute one reduction task,
    given as its lanes ({!Task.red_sink}). Allocates only the value a
    live response carries (a [V_int], [V_ref] or [V_err] block) and the
    fresh slots an expansion draws (DESIGN.md §6); its sends are lanes,
    and a stalled expansion parks its own lanes. Raises
    [Invalid_argument], naming the lanes, on a marking task: a [head]
    lane that holds a mark's meta, which is never negative. *)

val execute_task : t -> Task.t -> unit
(** {!execute} of a view. Raises [Invalid_argument] naming the task on a
    marking task. *)

val initial_task : t -> Task.t
(** The distinguished initial task [<-,root>] (§2.2). *)

val finished : t -> bool
(** The overall result has been delivered. *)

val park_lanes : int
(** The ints a parked request takes in [parked]. *)

val iter_parked_rows : t -> (int -> int -> int -> int -> int -> unit) -> unit
(** Apply [f gen head src dst key] to every parked request, in park
    order, with no view built (M_T seed assembly, the engine's retry). *)

val iter_parked : t -> (int -> Task.t -> unit) -> unit
(** {!iter_parked_rows} with each request handed over as a view. *)

val parked_count : t -> int


val absorb : t -> t -> unit
(** [absorb t src] folds a per-PE reducer's step-local effects into [t]
    and zeroes [src]: counters are summed, parked tasks appended, stuck
    vertices merged (first report wins), and a pending [result] adopted.
    The sharded engine calls this at each barrier in ascending PE order
    so the merge is independent of domain scheduling. *)
