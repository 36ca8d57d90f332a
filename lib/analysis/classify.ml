open Dgr_graph
open Dgr_task
open Task

type sets = {
  reach : Reach.t;
  free : Vid.Set.t;
  garbage : Vid.Set.t;
  deadlocked : Vid.Set.t;
  deadlocked_plain : Vid.Set.t;
}

let compute snap ~tasks =
  let reach = Reach.compute snap ~tasks in
  let free = Snapshot.free_set snap in
  let all =
    Array.fold_left (fun acc (v : Snapshot.vertex) -> Vid.Set.add v.Snapshot.id acc)
      Vid.Set.empty snap.Snapshot.verts
  in
  let garbage = Vid.Set.diff (Vid.Set.diff all reach.Reach.root_reachable) free in
  let deadlocked = Vid.Set.diff reach.Reach.r_v reach.Reach.task_reachable in
  let deadlocked_plain =
    Vid.Set.diff reach.Reach.root_reachable reach.Reach.task_reachable
  in
  { reach; free; garbage; deadlocked; deadlocked_plain }

type task_kind = Vital | Eager | Reserve | Irrelevant | Unclassified

let task_kind_to_string = function
  | Vital -> "vital"
  | Eager -> "eager"
  | Reserve -> "reserve"
  | Irrelevant -> "irrelevant"
  | Unclassified -> "unclassified"

let destination = function
  | Request { dst; _ } -> Some dst
  | Respond { dst; _ } -> dst
  | Cancel { dst; _ } -> Some dst

let classify_task sets task =
  match destination task with
  | None -> Unclassified
  | Some d ->
    if Vid.Set.mem d sets.garbage then Irrelevant
    else if Vid.Set.mem d sets.reach.Reach.r_v then Vital
    else if Vid.Set.mem d sets.reach.Reach.r_e then Eager
    else if Vid.Set.mem d sets.reach.Reach.r_r then Reserve
    else Unclassified

type venn = {
  n_vital : int;
  n_eager : int;
  n_reserve : int;
  n_task_only : int;
  n_garbage : int;
  n_garbage_task : int;
  n_deadlocked : int;
  n_free : int;
  n_live : int;
}

let venn snap sets =
  let r = sets.reach in
  let t = r.Reach.task_reachable in
  {
    n_vital = Vid.Set.cardinal r.Reach.r_v;
    n_eager = Vid.Set.cardinal r.Reach.r_e;
    n_reserve = Vid.Set.cardinal r.Reach.r_r;
    n_task_only = Vid.Set.cardinal (Vid.Set.diff t r.Reach.root_reachable);
    n_garbage = Vid.Set.cardinal sets.garbage;
    n_garbage_task = Vid.Set.cardinal (Vid.Set.inter sets.garbage t);
    n_deadlocked = Vid.Set.cardinal sets.deadlocked;
    n_free = Vid.Set.cardinal sets.free;
    n_live = List.length (Snapshot.live snap);
  }
