open Dgr_graph
open Dgr_task
open Task

type t = {
  graph : Graph.t;
  plane : Plane.id;
  variant : Run.variant;
  wave : int;
  sent : int array;
  executed : int array;
}

let create graph variant =
  let n = Graph.num_pes graph in
  {
    graph;
    plane = Run.plane_of_variant variant;
    variant;
    wave = Graph.wave graph;
    sent = Array.make n 0;
    executed = Array.make n 0;
  }

let pe_slot t pe = if pe >= 0 && pe < Array.length t.sent then pe else 0

let count_seed t ~pe = t.sent.(pe_slot t pe) <- t.sent.(pe_slot t pe) + 1

let count_coop_spawn t ~pe = count_seed t ~pe

let count_executed t ~pe =
  let s = pe_slot t pe in
  t.executed.(s) <- t.executed.(s) + 1

let credit t ~pe =
  let s = pe_slot t pe in
  (t.sent.(s), t.executed.(s))

let mark_task_for t ~v ~prior =
  let ep = t.wave in
  match t.variant with
  | Run.Basic -> Mark1 { v; par = Plane.Rootpar; ep }
  | Run.Priority -> Mark2 { v; par = Plane.Rootpar; prior; ep }
  | Run.Tasks -> Mark3 { v; par = Plane.Rootpar; ep }

(* The flood never uses mt-par; seeds and spawned tasks alike carry the
   dummy Rootpar so a task printout distinguishes the schemes. *)
let seed_for t v = mark_task_for t ~v ~prior:3

let mark_task t ~v ~prior = mark_task_for t ~v ~prior

let spawn_children t ~pe ~v ~prior ~emit =
  let g = t.graph in
  Trace.iter_children g t.plane v (fun c ->
      count_seed t ~pe;
      emit (mark_task_for t ~v:c ~prior:(Trace.child_priority g v prior c)))

let execute t ~pe ~emit task =
  (match task with
  | Return _ -> invalid_arg "Flood.execute: this scheme has no return tasks"
  | Mark1 _ | Mark2 _ | Mark3 _ ->
    if Task.plane_of_mark task <> t.plane then
      invalid_arg "Flood.execute: task for the wrong plane");
  if Task.mark_ep task <> t.wave then
    invalid_arg "Flood.execute: stale-wave task (drop before dispatch)";
  count_executed t ~pe;
  match task with
  | Return _ -> assert false
  | Mark1 { v; _ } | Mark3 { v; _ } ->
    let vx = Graph.vertex t.graph v in
    let plane = Vertex.plane vx t.plane in
    if (Vertex.free vx) || Plane.marked plane then ()
    else begin
      Plane.mark plane;
      spawn_children t ~pe ~v ~prior:3 ~emit
    end
  | Mark2 { v; prior; _ } ->
    let vx = Graph.vertex t.graph v in
    let plane = Vertex.plane vx t.plane in
    if (Vertex.free vx) then ()
    else if Plane.marked plane && prior <= (Plane.prior plane) then ()
    else begin
      (* first visit, or a strictly higher priority: (re-)flood *)
      Plane.mark plane;
      Plane.set_prior plane @@ prior;
      spawn_children t ~pe ~v ~prior ~emit
    end

let sent_total t = Array.fold_left ( + ) 0 t.sent

let executed_total t = Array.fold_left ( + ) 0 t.executed

let outstanding t = sent_total t - executed_total t

let bookkeeping_words t = 2 * Array.length t.sent
