open Dgr_graph
open Dgr_task

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

(* The flood never uses mt-par; seeds and spawned tasks alike carry the
   dummy Rootpar so a task printout distinguishes the schemes. *)
let seed_meta t = Run.mark_meta t.variant ~wave:t.wave ~prior:3

let spawn_children t ~pe ~prior ~emit vx =
  for i = 0 to Trace.child_slots vx t.plane - 1 do
    let c = Trace.child_at vx t.plane i in
    if c >= 0 then begin
      count_seed t ~pe;
      emit c (-1)
        (Run.mark_meta t.variant ~wave:t.wave ~prior:(Trace.child_priority_of vx prior c))
    end
  done

let execute t ~pe ~emit v _par meta =
  if Task.is_return meta then invalid_arg "Flood.execute: this scheme has no return tasks";
  if Task.meta_plane meta <> t.plane then invalid_arg "Flood.execute: task for the wrong plane";
  if Task.meta_ep meta <> t.wave then
    invalid_arg "Flood.execute: stale-wave task (drop before dispatch)";
  count_executed t ~pe;
  let vx = Graph.vertex t.graph v in
  let plane = Vertex.plane vx t.plane in
  if Task.meta_kind meta = Task.kind_mark2 then begin
    let prior = Task.meta_prior meta in
    if (Vertex.free vx) then ()
    else if Plane.marked plane && prior <= (Plane.prior plane) then ()
    else begin
      (* first visit, or a strictly higher priority: (re-)flood *)
      Plane.mark plane;
      Plane.set_prior plane @@ prior;
      spawn_children t ~pe ~prior ~emit vx
    end
  end
  else if (Vertex.free vx) || Plane.marked plane then ()
  else begin
    Plane.mark plane;
    spawn_children t ~pe ~prior:3 ~emit vx
  end

let sent_total t = Array.fold_left ( + ) 0 t.sent

let executed_total t = Array.fold_left ( + ) 0 t.executed

let outstanding t = sent_total t - executed_total t

let bookkeeping_words t = 2 * Array.length t.sent
