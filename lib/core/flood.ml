open Dgr_graph
open Dgr_task

type t = {
  graph : Graph.t;
  plane : Plane.id;
  variant : Run.variant;
  wave : int;
  metas : int array;
  sent : int array;
  executed : int array;
}

let create graph variant =
  let n = Graph.num_pes graph and wave = Graph.wave graph in
  {
    graph;
    plane = Run.plane_of_variant variant;
    variant;
    wave;
    metas = Run.metas_of variant ~wave;
    sent = Array.make n 0;
    executed = Array.make n 0;
  }

let pe_slot cells pe = if pe >= 0 && pe < Array.length cells then pe else 0

let count cells ~pe n =
  let s = pe_slot cells pe in
  cells.(s) <- cells.(s) + n

let count_seed t ~pe = count t.sent ~pe 1

let sent_on t ~pe = t.sent.(pe_slot t.sent pe)

let executed_on t ~pe = t.executed.(pe_slot t.executed pe)

(* The flood never uses mt-par; seeds and spawned tasks alike carry the
   dummy Rootpar so a task printout distinguishes the schemes. *)
let seed_meta t = t.metas.(3)

(* The priority a mark floods at: a mark2 at its own (a first visit, or
   a strictly higher priority, (re-)floods), the priority-less marks at
   0. The flood's own marks carry one of its [metas]; anything else is
   decoded and checked. *)
let prior_of t meta =
  let prior = Run.prior_in t.metas meta in
  if prior >= 0 then prior
  else begin
    if Task.is_return meta then
      invalid_arg "Flood.execute: this scheme has no return tasks";
    if Task.meta_plane meta <> t.plane then
      invalid_arg "Flood.execute: task for the wrong plane";
    if Task.meta_ep meta <> t.wave then
      invalid_arg "Flood.execute: stale-wave task (drop before dispatch)";
    if Task.meta_kind meta = Task.kind_mark2 then Task.meta_prior meta else 0
  end

(* The children the visit spawns are counted as sent by [pe]. *)
let execute t ~pe ~emit v _par meta =
  let prior = prior_of t meta in
  count t.executed ~pe 1;
  let n = Vertex.mark_flood (Graph.vertex t.graph v) t.plane ~prior ~metas:t.metas ~emit in
  if n > 0 then count t.sent ~pe n

let sent_total t = Array.fold_left ( + ) 0 t.sent

let executed_total t = Array.fold_left ( + ) 0 t.executed

let outstanding t = sent_total t - executed_total t

let bookkeeping_words t = 2 * Array.length t.sent
