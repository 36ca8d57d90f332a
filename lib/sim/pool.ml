open Dgr_util
open Dgr_graph
open Dgr_task

type policy = Flat | By_demand | Dynamic

(* Marking and reduction tasks occupy separate queues: the engine gives
   each its own per-step budget, so GC and computation cannot starve one
   another by queue position alone. The marking queue is a FIFO ring of
   mark lanes ([Mark_ring]). Every marking task has priority 0 and
   travels without a lineage ticket (only reduction tasks are ticketed:
   latency is tracked for demand propagation, not for the mark wave),
   which makes the priority heap the reduction queue needs a FIFO paid
   for at O(log n) per push and per pop. The ring pays O(1) and carries
   no priorities or tags. *)
type t = {
  marking : Mark_ring.t;
  reduction : Task.t Pqueue.t;
  policy : policy;
  g : Graph.t;
  pe : int;
  recorder : Dgr_obs.Recorder.t option;
  lineage : Dgr_obs.Lineage.t option;
      (* release tickets of purged tasks; pops return the stamp to the
         engine, which closes it at execution *)
}

(* The global class of a vertex: the priority the last completed M_R
   cycle assigned (3 vital / 2 eager / 1 reserve), 0 when not yet
   classified. *)
let class_of g v = if Graph.mem g v then (Vertex.sched_prior (Graph.vertex g v)) else 0

(* Effective global class of a request <s,d>: the destination's class if
   known; otherwise inherit from the source, capped by the request's own
   (relative) demand — a task spawned from an eager region stays eager no
   matter how "vital" it is locally (§3.2). Fresh regions with no
   classified source fall back to the relative demand. *)
let request_class g ~src ~dst ~demand =
  match demand with
  | Demand.Vital ->
    (* A vital-flagged task is vital no matter what an older cycle said:
       demand upgrades (§3.2 item 2) travel by task between cycles. *)
    3
  | Demand.Eager -> (
    match class_of g dst with
    | 0 -> (
      match src with
      | Some s when class_of g s > 0 -> Int.min (class_of g s) 2
      | Some _ | None -> 2)
    | c -> c)

let priority_of policy g task =
  match task with
  | Task.Marking _ -> 0
  | Task.Reduction (Task.Cancel _) -> 1 (* cheap, and it shrinks future work *)
  | Task.Reduction (Task.Respond { src; dst; demand; _ }) -> (
    match policy with
    | Flat -> 2
    | By_demand -> ( match demand with Demand.Vital -> 1 | Demand.Eager -> 3)
    | Dynamic -> (
      let cls =
        match dst with
        | None -> 3
        | Some d -> request_class g ~src:(Some src) ~dst:d ~demand
      in
      match cls with 3 -> 1 | 2 -> 3 | _ -> 5))
  | Task.Reduction (Task.Request { src; dst; demand; _ }) -> (
    match policy with
    | Flat -> 2
    | By_demand -> ( match demand with Demand.Vital -> 2 | Demand.Eager -> 4)
    | Dynamic -> (
      match request_class g ~src ~dst ~demand with 3 -> 2 | 2 -> 4 | _ -> 5))

let create ?recorder ?lineage ?(pe = 0) policy g =
  {
    marking = Mark_ring.create ();
    reduction = Pqueue.create ();
    policy;
    g;
    pe;
    recorder;
    lineage;
  }

let push_stamped t stamp task =
  match task with
  | Task.Marking m ->
    if stamp >= 0 then
      invalid_arg
        (Printf.sprintf "Pool.push: marking task on PE %d carries lineage stamp %d" t.pe
           stamp);
    Mark_ring.push t.marking (Task.lane_v m) (Task.lane_par m) (Task.lane_meta m)
  | Task.Reduction _ ->
    Pqueue.add_tagged t.reduction (priority_of t.policy t.g task) ~tag:stamp task

let push ?(stamp = -1) t task = push_stamped t stamp task

let marks t = t.marking

(* Budgeted callback drains for the engine's per-step budget loops, one
   ring call per budget: [drain_lanes] serves the reduction queue first
   and lends what is left of the budget to marking. Nothing pushes into
   a pool while its budget runs (sends go through the network), so the
   reduction queue cannot refill once it ran dry. *)
let drain_marking t ~budget mark =
  let (_ : int) = Mark_ring.drain t.marking ~budget mark in
  ()

let drain_lanes t ~budget ~red ~mark =
  let n = ref 0 in
  while !n < budget && Pqueue.pop_tagged_with t.reduction red do
    incr n
  done;
  if !n < budget then drain_marking t ~budget:(budget - !n) mark

let drain t ~budget f =
  drain_lanes t ~budget ~red:f ~mark:(fun v par meta ->
      f (Task.Marking (Task.mark_of_lanes v par meta)) (-1))

let length t = Mark_ring.length t.marking + Pqueue.length t.reduction

let is_empty t = Mark_ring.length t.marking = 0 && Pqueue.is_empty t.reduction

let tasks t =
  List.map (fun m -> Task.Marking m) (Mark_ring.to_list t.marking)
  @ List.map snd (Pqueue.to_sorted_list t.reduction)

let iter_reductions t f =
  Pqueue.iter
    (fun _ task -> match task with Task.Reduction r -> f r | Task.Marking _ -> ())
    t.reduction

let purge t pred =
  let before = length t in
  Mark_ring.filter_in_place (fun m -> not (pred (Task.Marking m))) t.marking;
  Pqueue.filter_tagged_in_place
    (fun _prio stamp task ->
      if pred task then begin
        (match t.lineage with
        | Some l when stamp >= 0 -> Dgr_obs.Lineage.drop l stamp
        | _ -> ());
        false
      end
      else true)
    t.reduction;
  let n = before - length t in
  (match t.recorder with
  | Some r when n > 0 ->
    Dgr_obs.Recorder.emit r (Dgr_obs.Event.Purge { pe = t.pe; count = n })
  | Some _ | None -> ());
  n

let reprioritize t =
  let changed = ref 0 in
  Pqueue.map_priorities
    (fun old task ->
      let p = priority_of t.policy t.g task in
      if p <> old then incr changed;
      p)
    t.reduction;
  !changed
