open Dgr_graph
open Dgr_task

let bad_task run v par meta =
  invalid_arg
    (Format.asprintf "Marker.execute: task %a does not belong to run %a" Task.pp_mark
       (Task.mark_of_lanes v par meta) Run.pp run)

(* Charge one traced child to [plane] and emit its mark. Top-level with
   every argument passed, so the child loops build no closure. *)
let spawn_child plane ~emit ~v ~meta c =
  Plane.set_cnt plane @@ (Plane.cnt plane) + 1;
  emit c v meta

(* Shared by mark1/mark3 (the non-priority variants): trace the children,
   building the marking tree. Spawned tasks are handed to [emit] in the
   order the children are traced; if no child charged the count, the
   vertex is fully marked and owes its parent a return. Every spawned
   task carries the run's wave. *)
let mark_simple run ~v ~par ~emit =
  let vx = Graph.vertex run.Run.graph v in
  let plane = Vertex.plane vx run.Run.plane in
  if (Vertex.free vx) || not (Plane.unmarked plane) then emit (-1) par (Run.return_meta run)
  else begin
    Plane.touch plane;
    Plane.set_par_vid plane par;
    let meta = Run.mark_meta run.Run.variant ~wave:run.Run.wave ~prior:0 in
    for i = 0 to Trace.child_slots vx run.Run.plane - 1 do
      let c = Trace.child_at vx run.Run.plane i in
      if c >= 0 then spawn_child plane ~emit ~v ~meta c
    done;
    if (Plane.cnt plane) = 0 then begin
      Plane.mark plane;
      emit (-1) par (Run.return_meta run)
    end
  end

(* Fig 5-1: the body of [modify(v,par,prior)]. *)
let modify run ~v ~par ~prior ~emit =
  let ep = run.Run.wave in
  let vx = Graph.vertex run.Run.graph v in
  let plane = Vertex.plane vx run.Run.plane in
  Plane.touch plane;
  Plane.set_par_vid plane par;
  Plane.set_prior plane @@ prior;
  for i = 0 to Vertex.arg_count vx - 1 do
    let c = Vertex.arg vx i in
    spawn_child plane ~emit ~v c
      ~meta:
        (Task.meta ~kind:Task.kind_mark2 ~plane:Plane.MR
           ~prior:(Trace.child_priority_of vx prior c) ~ep)
  done;
  if (Plane.cnt plane) = 0 then begin
    Plane.mark plane;
    emit (-1) par (Run.return_meta run)
  end

(* Fig 5-1: mark2. *)
let mark_priority run ~v ~par ~prior ~emit =
  let vx = Graph.vertex run.Run.graph v in
  let plane = Vertex.plane vx run.Run.plane in
  if (Vertex.free vx) then emit (-1) par (Run.return_meta run)
  else if Plane.unmarked plane then modify run ~v ~par ~prior ~emit
  else if prior <= (Plane.prior plane) then emit (-1) par (Run.return_meta run)
  else begin
    (* Re-mark at a higher priority. If the vertex is mid-marking
       (transient), release its current parent first: the new [modify]
       re-points mt-par at the new parent, and the outstanding children
       from the previous visit still credit this vertex's count. *)
    if Plane.transient plane then emit (-1) (Plane.par_vid plane) (Run.return_meta run);
    modify run ~v ~par ~prior ~emit
  end

(* Fig 4-1: return1. *)
let return_task run ~par ~emit =
  if par < 0 then Run.seed_returned run
  else begin
    let vx = Graph.vertex run.Run.graph par in
    let plane = Vertex.plane vx run.Run.plane in
    if (Plane.cnt plane) <= 0 then
      invalid_arg (Format.asprintf "Marker: return to %a with mt-cnt=0" Vid.pp par);
    Plane.set_cnt plane @@ (Plane.cnt plane) - 1;
    if (Plane.cnt plane) = 0 then begin
      Plane.mark plane;
      emit (-1) (Plane.par_vid plane) (Run.return_meta run)
    end
  end

let execute run ~pe ~emit v par meta =
  let kind = Task.meta_kind meta in
  if Task.meta_plane meta <> run.Run.plane || Task.meta_ep meta <> run.Run.wave then
    bad_task run v par meta;
  match run.Run.variant with
  | _ when kind = Task.kind_return ->
    Run.count_return run ~pe;
    return_task run ~par ~emit
  | Run.Basic when kind = Task.kind_mark1 ->
    Run.count_mark run ~pe;
    mark_simple run ~v ~par ~emit
  | Run.Priority when kind = Task.kind_mark1 ->
    (* mark1 inside an M_R run happens only via legacy callers; treat it
       as a priority-less mark2 at the lowest priority. *)
    Run.count_mark run ~pe;
    mark_priority run ~v ~par ~prior:1 ~emit
  | Run.Priority when kind = Task.kind_mark2 ->
    Run.count_mark run ~pe;
    mark_priority run ~v ~par ~prior:(Task.meta_prior meta) ~emit
  | Run.Tasks when kind = Task.kind_mark3 ->
    Run.count_mark run ~pe;
    mark_simple run ~v ~par ~emit
  | Run.Basic | Run.Priority | Run.Tasks -> bad_task run v par meta

let seed_meta run = Run.mark_meta run.Run.variant ~wave:run.Run.wave ~prior:3
