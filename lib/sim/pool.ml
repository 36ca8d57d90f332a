open Dgr_util
open Dgr_graph
open Dgr_task

type policy = Flat | By_demand | Dynamic

let policy_to_string = function
  | Flat -> "flat"
  | By_demand -> "by-demand"
  | Dynamic -> "dynamic"

(* The marking queue: a growable FIFO ring. Every marking task has
   priority 0 and travels without a lineage ticket (marks may coalesce
   away in transit, so none is ever opened), which makes the priority
   heap the reduction queue needs a FIFO paid for at O(log n) per push
   and per pop. The ring pays O(1) and carries no priorities or tags.
   Its capacity is 0 or a power of two, so positions wrap by masking. *)
module Ring = struct
  type t = {
    mutable buf : Task.t array;
    mutable head : int;  (* position of the oldest task *)
    mutable len : int;
  }

  let create () = { buf = [||]; head = 0; len = 0 }

  let slot r i = (r.head + i) land (Array.length r.buf - 1)

  (* Unwrap into a buffer twice the size, oldest task at position 0.
     [x] fills the fresh array, keeping its representation right. *)
  let grow r x =
    let cap = Array.length r.buf in
    let buf = Array.make (if cap = 0 then 8 else 2 * cap) x in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.(slot r i)
    done;
    r.buf <- buf;
    r.head <- 0

  let push r x =
    if r.len = Array.length r.buf then grow r x;
    r.buf.(slot r r.len) <- x;
    r.len <- r.len + 1

  let take r =
    let x = r.buf.(r.head) in
    r.head <- slot r 1;
    r.len <- r.len - 1;
    x

  let pop r = if r.len = 0 then None else Some (take r)

  (* Pop the oldest task into [f task (-1)]; false (and no call) when
     empty. The ring is updated before [f] runs, so [f] may push. *)
  let pop_with r f =
    if r.len = 0 then false
    else begin
      f (take r) (-1);
      true
    end

  let iter f r =
    for i = 0 to r.len - 1 do
      f r.buf.(slot r i)
    done

  let to_list r = List.init r.len (fun i -> r.buf.(slot r i))

  (* Keep the tasks [keep] accepts, oldest first, compacting toward the
     head: the write position never passes the read position, so no
     survivor is overwritten before it is read. *)
  let filter_in_place keep r =
    let j = ref 0 in
    for i = 0 to r.len - 1 do
      let x = r.buf.(slot r i) in
      if keep x then begin
        if !j <> i then r.buf.(slot r !j) <- x;
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
  | Task.Marking _ ->
    if stamp >= 0 then
      invalid_arg
        (Printf.sprintf "Pool.push: marking task on PE %d carries lineage stamp %d" t.pe
           stamp);
    Ring.push t.marking task
  | Task.Reduction _ ->
    Pqueue.add_tagged t.reduction (priority_of t.policy t.g task) ~tag:stamp task

let push ?(stamp = -1) t task = push_stamped t stamp task

let pop_marking_stamped t =
  match Ring.pop t.marking with Some task -> Some (task, -1) | None -> None

let pop_stamped t =
  match Pqueue.pop_tagged t.reduction with
  | Some (_, stamp, task) -> Some (task, stamp)
  | None -> pop_marking_stamped t

let pop t = Option.map fst (pop_stamped t)

let pop_marking t = Option.map fst (pop_marking_stamped t)

(* Budgeted callback drains — the no-box counterparts of the
   [pop_*_stamped] forms, for the engine's per-step budget loops. Pop
   order is identical: [drain] serves the reduction queue first and falls
   back to marking, like [pop_stamped]. *)
let drain_marking t ~budget f =
  let n = ref 0 in
  while !n < budget && Ring.pop_with t.marking f do
    incr n
  done

let drain t ~budget f =
  let n = ref 0 in
  let continue = ref true in
  while !n < budget && !continue do
    if Pqueue.pop_tagged_with t.reduction f then incr n
    else if Ring.pop_with t.marking f then incr n
    else continue := false
  done

let length t = t.marking.Ring.len + Pqueue.length t.reduction

let is_empty t = t.marking.Ring.len = 0 && Pqueue.is_empty t.reduction

let tasks t = Ring.to_list t.marking @ List.map snd (Pqueue.to_sorted_list t.reduction)

let iter_tasks t f =
  Ring.iter f t.marking;
  Pqueue.iter (fun _ task -> f task) t.reduction

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
