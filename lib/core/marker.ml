open Dgr_graph
open Dgr_task

let bad_task run v par meta =
  invalid_arg
    (Format.asprintf "Marker.execute: task %a does not belong to run %a" Task.pp_mark
       (Task.mark_of_lanes v par meta) Run.pp run)

(* Count one execution in [pe]'s cell. Out-of-range executors (the
   controller replays barrier tasks as PE [-1]) account to slot 0; only
   the totals are ever read. *)
let count cells ~pe =
  let s = if pe < 0 || pe >= Array.length cells then 0 else pe in
  cells.(s) <- cells.(s) + 1

(* The priority a non-return mark of the run executes at: the run's own
   marks carry one of its [metas] (the priority-less variants execute at
   0). Anything else is decoded: mark1 inside an M_R run happens only
   via legacy callers and runs as a mark2 at the lowest priority; the
   rest does not belong to the run. *)
let prior_of run v par meta =
  let prior = Run.prior_in run.Run.metas meta in
  if prior >= 0 then prior
  else if
    run.Run.variant = Run.Priority
    && Task.meta_kind meta = Task.kind_mark1
    && Task.meta_plane meta = run.Run.plane
    && Task.meta_ep meta = run.Run.wave
  then 1
  else bad_task run v par meta

(* Dispatch: check the task against the run, count it, and hand it to
   its [Vertex] transition — mark1/mark3 at priority 0, mark2 at its own
   (Figs 4-1, 5-1, 5-3), a return to a vertex to return1, a return to
   the dummy rootpar to the run's seed count. *)
let execute run ~pe ~emit v par meta =
  if meta = run.Run.return_meta then begin
    count run.Run.returns_executed ~pe;
    if par < 0 then Run.seed_returned run
    else
      Vertex.return_tree (Graph.vertex run.Run.graph par) run.Run.plane
        ~ret:run.Run.return_meta ~emit
  end
  else begin
    let prior = prior_of run v par meta in
    count run.Run.marks_executed ~pe;
    Vertex.mark_tree (Graph.vertex run.Run.graph v) run.Run.plane ~par ~prior
      ~metas:run.Run.metas ~ret:run.Run.return_meta ~emit
  end

(* M_R's seed carries priority 3: "we assume that the value of the root
   is essential to the overall computation" (§5.1). *)
let seed_meta run = run.Run.metas.(3)
