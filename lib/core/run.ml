open Dgr_graph

type variant = Basic | Priority | Tasks

type t = {
  graph : Graph.t;
  plane : Plane.id;
  variant : variant;
  wave : int;
  metas : int array;
  return_meta : int;
  mutable outstanding_seeds : int;
  mutable finished : bool;
  marks_executed : int array;
  returns_executed : int array;
  mutable coop_spawns : int;
  mutable coop_closure : int;
}

let plane_of_variant = function Basic | Priority -> Plane.MR | Tasks -> Plane.MT

let metas_of variant ~wave =
  let open Dgr_task.Task in
  Array.init 4 (fun prior ->
      match variant with
      | Basic -> meta ~kind:kind_mark1 ~plane:Plane.MR ~prior:0 ~ep:wave
      | Priority -> meta ~kind:kind_mark2 ~plane:Plane.MR ~prior ~ep:wave
      | Tasks -> meta ~kind:kind_mark3 ~plane:Plane.MT ~prior:0 ~ep:wave)

let prior_in metas meta =
  if meta = metas.(0) then 0
  else if meta = metas.(1) then 1
  else if meta = metas.(2) then 2
  else if meta = metas.(3) then 3
  else -1

let create graph variant =
  let plane = plane_of_variant variant and wave = Graph.wave graph in
  {
    graph;
    plane;
    variant;
    wave;
    metas = metas_of variant ~wave;
    return_meta =
      Dgr_task.Task.meta ~kind:Dgr_task.Task.kind_return ~plane ~prior:0 ~ep:wave;
    outstanding_seeds = 0;
    finished = false;
    marks_executed = Array.make (Int.max 1 (Graph.num_pes graph)) 0;
    returns_executed = Array.make (Int.max 1 (Graph.num_pes graph)) 0;
    coop_spawns = 0;
    coop_closure = 0;
  }

let marks_total t = Array.fold_left ( + ) 0 t.marks_executed

let returns_total t = Array.fold_left ( + ) 0 t.returns_executed

let seed_added t = t.outstanding_seeds <- t.outstanding_seeds + 1

let seed_returned t =
  if t.outstanding_seeds <= 0 then invalid_arg "Run.seed_returned: no outstanding seeds";
  t.outstanding_seeds <- t.outstanding_seeds - 1;
  if t.outstanding_seeds = 0 then t.finished <- true

let check_trivially_finished t = if t.outstanding_seeds = 0 then t.finished <- true

let pp fmt t =
  let variant =
    match t.variant with Basic -> "basic" | Priority -> "M_R" | Tasks -> "M_T"
  in
  Format.fprintf fmt "%s[%a] w%d seeds=%d finished=%b marks=%d returns=%d" variant
    Plane.pp_id t.plane t.wave t.outstanding_seeds t.finished (marks_total t)
    (returns_total t)
