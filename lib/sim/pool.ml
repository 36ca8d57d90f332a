open Dgr_util
open Dgr_graph
open Dgr_task

type policy = Flat | By_demand | Dynamic

let policy_to_string = function
  | Flat -> "flat"
  | By_demand -> "by-demand"
  | Dynamic -> "dynamic"

(* The marking queue: a growable FIFO ring of mark lanes (see
   [Task.sink]), three ints per slot, so queueing a mark allocates
   nothing. Every marking task has priority 0 and travels without a
   lineage ticket (only reduction tasks are ticketed: latency is tracked
   for demand propagation, not for the mark wave), which makes the
   priority heap the reduction queue needs a FIFO paid for at O(log n)
   per push and per pop. The ring pays O(1) and carries no priorities or
   tags. Its capacity is 0 or a power of two, so positions wrap by
   masking. *)
module Ring = struct
  type t = {
    mutable buf : int array;  (* slot [k] is [buf.(3k) .. buf.(3k+2)] *)
    mutable mask : int;  (* capacity - 1 *)
    mutable head : int;  (* slot of the oldest mark *)
    mutable len : int;
  }

  let create () = { buf = [||]; mask = -1; head = 0; len = 0 }

  let slot r i = 3 * ((r.head + i) land r.mask)

  (* Unwrap into a buffer twice the size, oldest mark in slot 0. *)
  let grow r =
    let cap = r.mask + 1 in
    let cap' = if cap = 0 then 8 else 2 * cap in
    let buf = Array.make (3 * cap') 0 in
    for i = 0 to r.len - 1 do
      Array.blit r.buf (slot r i) buf (3 * i) 3
    done;
    r.buf <- buf;
    r.mask <- cap' - 1;
    r.head <- 0

  let push r v par meta =
    if r.len = r.mask + 1 then grow r;
    let k = slot r r.len in
    Array.unsafe_set r.buf k v;
    Array.unsafe_set r.buf (k + 1) par;
    Array.unsafe_set r.buf (k + 2) meta;
    r.len <- r.len + 1

  let drop_oldest r =
    r.head <- (r.head + 1) land r.mask;
    r.len <- r.len - 1

  (* Pop the oldest mark into [f v par meta]; false (and no call) when
     empty. The ring is updated before [f] runs, so [f] may push (a
     push may regrow [buf], so the lanes are read first). *)
  let pop_with r (f : Task.sink) =
    if r.len = 0 then false
    else begin
      let k = slot r 0 in
      let v = Array.unsafe_get r.buf k
      and par = Array.unsafe_get r.buf (k + 1)
      and meta = Array.unsafe_get r.buf (k + 2) in
      drop_oldest r;
      f v par meta;
      true
    end

  let view r i =
    let k = slot r i in
    Task.Marking (Task.mark_of_lanes r.buf.(k) r.buf.(k + 1) r.buf.(k + 2))

  let to_list r = List.init r.len (view r)

  (* Keep the marks [keep] accepts, oldest first, compacting toward the
     head: the write position never passes the read position, so no
     survivor is overwritten before it is read. *)
  let filter_in_place keep r =
    let j = ref 0 in
    for i = 0 to r.len - 1 do
      if keep (view r i) then begin
        if !j <> i then Array.blit r.buf (slot r i) r.buf (slot r !j) 3;
        incr j
      end
    done;
    r.len <- !j
end

(* Marking and reduction tasks occupy separate queues: the engine gives
   each its own per-step budget, so GC and computation cannot starve one
   another by queue position alone. *)
type t = {
  marking : Ring.t;
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
    marking = Ring.create ();
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
    Ring.push t.marking (Task.lane_v m) (Task.lane_par m) (Task.lane_meta m)
  | Task.Reduction _ ->
    Pqueue.add_tagged t.reduction (priority_of t.policy t.g task) ~tag:stamp task

let push ?(stamp = -1) t task = push_stamped t stamp task

let push_mark t v par meta = Ring.push t.marking v par meta

(* Budgeted callback drains for the engine's per-step budget loops:
   [drain_lanes] serves the reduction queue first and falls back to
   marking. *)
let drain_marking t ~budget mark =
  let n = ref 0 in
  while !n < budget && Ring.pop_with t.marking mark do
    incr n
  done

let drain_lanes t ~budget ~red ~mark =
  let n = ref 0 in
  let continue = ref true in
  while !n < budget && !continue do
    if Pqueue.pop_tagged_with t.reduction red then incr n
    else if Ring.pop_with t.marking mark then incr n
    else continue := false
  done

let drain t ~budget f =
  drain_lanes t ~budget ~red:f ~mark:(fun v par meta ->
      f (Task.Marking (Task.mark_of_lanes v par meta)) (-1))

let length t = t.marking.Ring.len + Pqueue.length t.reduction

let is_empty t = t.marking.Ring.len = 0 && Pqueue.is_empty t.reduction

let tasks t = Ring.to_list t.marking @ List.map snd (Pqueue.to_sorted_list t.reduction)

let iter_reductions t f =
  Pqueue.iter
    (fun _ task -> match task with Task.Reduction r -> f r | Task.Marking _ -> ())
    t.reduction

let purge t pred =
  let before = length t in
  Ring.filter_in_place (fun task -> not (pred task)) t.marking;
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
