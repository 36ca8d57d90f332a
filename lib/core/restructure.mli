open Dgr_graph

(** The restructuring phase (§4).

    Runs after a marking cycle completes (M_T, if scheduled, then M_R) and
    performs the "appropriate action" for each identified set:

    - vertices in GAR' = V − R' − F are returned to the free list
      (Theorem 1 guarantees GAR(t_b) ⊆ GAR' ⊆ GAR(t_c));
    - tasks with an endpoint in GAR' (Property 6's irrelevant tasks, and
      responses and cancels to and from reclaimed vertices) go stale, as
      each release raises its slot's generation, and die where they are
      next handled ({!Dgr_task.Task.stale});
    - dangling [requested] entries naming reclaimed vertices are dropped;
    - deadlocked vertices DL'_v = R'_v − T' are reported (only when M_T ran
      this cycle; Theorem 2);
    - every live marked vertex's M_R priority is copied to its persistent
      [sched_prior] so PE pools can re-prioritize queued tasks (§3.2), and
      the pools are asked to re-sort;
    - both marking planes are reset for the next cycle.

    The paper leaves this phase "to be tailored to a particular system";
    this is the obvious instantiation for ours (see DESIGN.md §1).

    The phase is {e sharded by home partition}: the verdict collection
    and the survivor-bookkeeping passes each touch only one home PE's
    slots, so no home's pass reads what another's wrote ([each_home]),
    and per-home results merge in fixed PE order — bit-identical at
    every domain count. No pass walks the tasks. Only the free-list
    releases, the pool re-sort and the plane resets remain serial.

    GAR' membership is read from the slot itself — live, and unmarked in
    its M_R column, exactly {!collect_home}'s predicate — not from a set
    built of the verdict: nothing between the verdict and the releases
    writes a plane or frees a slot (the survivor pass writes only
    [sched_prior] and requester rows), so those reads do not depend on
    the order of the home passes. The verdicts go into per-home vectors
    the caller keeps ({!verdicts}), so once they have grown the phase allocates
    neither per garbage vertex nor per live vertex (survivors without
    requesters are only read): only the report's [deadlocked] list, one
    cell per DL' vertex. *)

type report = {
  garbage : int;  (** how many vertices this cycle reclaimed *)
  deadlocked : Vid.t list;  (** DL'_v; empty when M_T did not run *)
  deadlock_checked : bool;
  reprioritized : int;  (** pool tasks whose priority changed *)
}

type verdicts
(** Per-home vectors of the verdicts' vids, reused by every {!run} given
    them. *)

val verdicts : unit -> verdicts
(** Empty: sized at the first {!run}. *)

val run :
  graph:Graph.t ->
  deadlock_checked:bool ->
  reprioritize:(unit -> int) ->
  ?each_home:((int -> unit) -> unit) ->
  ?verdicts:verdicts ->
  unit ->
  report
(** [reprioritize ()] re-sorts pool entries by current priorities and
    returns how many moved; the engine's also drops the entries the
    releases just made stale. [each_home f] must call [f pe] exactly once for every home
    PE, in any order (each touches only its home's slots plus its own
    vectors of [verdicts]); default is a serial ascending loop.
    [verdicts] defaults to fresh vectors. *)

val collect_home : Graph.t -> deadlock_checked:bool -> pe:int -> Vid.t list * Vid.t list
(** One home's [(garbage, deadlocked)] verdict, read-only, each list in
    descending vid order (tests). *)
