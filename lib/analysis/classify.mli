open Dgr_graph
open Dgr_task

(** Static characterization of vertices and tasks — Properties 1-6 (§3).

    Everything here is oracle-side (global snapshot), mirroring what the
    decentralized cycle discovers incrementally. *)

type sets = {
  reach : Reach.t;
  free : Vid.Set.t;  (** F *)
  garbage : Vid.Set.t;  (** Property 1: GAR = V − R − F *)
  deadlocked : Vid.Set.t;  (** Property 2': DL_v = R_v − T *)
  deadlocked_plain : Vid.Set.t;  (** Property 2: DL = R − T *)
}

val compute : Snapshot.t -> tasks:Task.reduction list -> sets

type task_kind = Vital | Eager | Reserve | Irrelevant | Unclassified

val task_kind_to_string : task_kind -> string

val classify_task : sets -> Task.reduction -> task_kind
(** Properties 3-6, dispatching on the task's destination [d]:
    - [Vital]: d ∈ R_v;
    - [Eager]: d ∈ R_e − R_v;
    - [Reserve]: d ∈ R_r − R_e − R_v;
    - [Irrelevant]: d ∈ GAR;
    - [Unclassified]: anything else (e.g. a response to the external
      requester, or a task into F — transient states not covered by the
      paper's taxonomy). *)

type venn = {
  n_vital : int;  (** |R_v| *)
  n_eager : int;  (** |R_e − R_v| — but R_e ∩ R_v may be nonempty; see note *)
  n_reserve : int;
  n_task_only : int;  (** |T − R| *)
  n_garbage : int;
  n_garbage_task : int;  (** |GAR ∩ T| — irrelevant-task territory (§3.1) *)
  n_deadlocked : int;
  n_free : int;
  n_live : int;
}

val venn : Snapshot.t -> sets -> venn
(** The region sizes of Fig 3-3. *)
