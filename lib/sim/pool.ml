open Dgr_util
open Dgr_graph
open Dgr_task

type policy = Flat | By_demand | Dynamic

type red = int -> int -> int -> int -> int -> int -> string -> unit

(* Marking and reduction tasks occupy separate queues: the engine gives
   each its own per-step budget, so GC and computation cannot starve one
   another by queue position alone. The marking queue is a FIFO ring of
   mark lanes ([Mark_ring]). Every marking task has priority 0 and
   travels without a lineage ticket (only reduction tasks are ticketed:
   latency is tracked for demand propagation, not for the mark wave),
   which makes the priority heap the reduction queue needs a FIFO paid
   for at O(log n) per push and per pop. The ring pays O(1) and carries
   no priorities or tags.

   A queued reduction is a row of [row] ints in [rows] — [head; src;
   dst; key; pay], see [Task.red_sink] — and the heap holds its slot,
   with its lineage stamp as the entry's tag and its send generation as
   its aux. A free slot's first lane links the next free one. Between
   the shards, the serial delivery, restructure's re-sort and a crash
   write the table; while they run, only the owning PE's shard pops
   from it. *)
type t = {
  marking : Mark_ring.t;
  reduction : int Pqueue.t;
  mutable rows : int array;
  mutable free : int;  (* the first free slot, -1 when the table is full *)
  mutable errs : string array;
      (* the [V_err] strings of the queued rows, by slot: empty until the
         first one arrives *)
  policy : policy;
  g : Graph.t;
  pe : int;
  lineage : Dgr_obs.Lineage.t option;
      (* release the tickets of a crashed pool's tasks; pops return the
         stamp to the engine, which closes it at execution *)
}

let row = 5

(* The global class of a vertex: the priority the last completed M_R
   cycle assigned (3 vital / 2 eager / 1 reserve), 0 when not yet
   classified. *)
let class_of g v = if Graph.mem g v then Vertex.sched_prior (Graph.vertex g v) else 0

(* Effective global class of a request <s,d>: the destination's class if
   known; otherwise inherit from the source ([-1]: none), capped by the
   request's own (relative) demand — a task spawned from an eager region
   stays eager no matter how "vital" it is locally (§3.2). Fresh regions
   with no classified source fall back to the relative demand. *)
let request_class g ~src ~dst ~demand =
  match demand with
  | Demand.Vital ->
    (* A vital-flagged task is vital no matter what an older cycle said:
       demand upgrades (§3.2 item 2) travel by task between cycles. *)
    3
  | Demand.Eager -> (
    match class_of g dst with
    | 0 -> if src >= 0 && class_of g src > 0 then Int.min (class_of g src) 2 else 2
    | c -> c)

let priority_row policy g head src dst =
  let kind = Task.head_kind head and demand = Task.head_demand head in
  if kind = Task.red_cancel then 1 (* cheap, and it shrinks future work *)
  else if kind = Task.red_respond then
    match policy with
    | Flat -> 2
    | By_demand -> ( match demand with Demand.Vital -> 1 | Demand.Eager -> 3)
    | Dynamic -> (
      let cls = if dst < 0 then 3 else request_class g ~src ~dst ~demand in
      match cls with 3 -> 1 | 2 -> 3 | _ -> 5)
  else
    match policy with
    | Flat -> 2
    | By_demand -> ( match demand with Demand.Vital -> 2 | Demand.Eager -> 4)
    | Dynamic -> ( match request_class g ~src ~dst ~demand with 3 -> 2 | 2 -> 4 | _ -> 5)

let priority_of policy g task =
  match task with
  | Task.Marking _ -> 0
  | Task.Reduction r -> priority_row policy g (Task.red_head r) (Task.red_src r) (Task.red_dst r)

let create ?lineage ?(pe = 0) policy g =
  {
    marking = Mark_ring.create ();
    reduction = Pqueue.create ();
    rows = [||];
    free = -1;
    errs = [||];
    policy;
    g;
    pe;
    lineage;
  }

(* Double the table, threading the new slots onto the free list. *)
let grow t =
  let cap = Array.length t.rows / row in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let rows = Array.make (row * cap') 0 in
  Array.blit t.rows 0 rows 0 (row * cap);
  for s = cap to cap' - 1 do
    rows.(row * s) <- (if s + 1 < cap' then s + 1 else t.free)
  done;
  t.rows <- rows;
  t.free <- cap;
  if Array.length t.errs > 0 then begin
    let errs = Array.make cap' "" in
    Array.blit t.errs 0 errs 0 cap;
    t.errs <- errs
  end

let release t slot =
  if Array.length t.errs > 0 then t.errs.(slot) <- "";
  t.rows.(row * slot) <- t.free;
  t.free <- slot

let push_row t ~stamp ~gen head src dst key pay err =
  if t.free < 0 then grow t;
  let slot = t.free in
  let a = t.rows and i = row * slot in
  t.free <- a.(i);
  a.(i) <- head;
  a.(i + 1) <- src;
  a.(i + 2) <- dst;
  a.(i + 3) <- key;
  a.(i + 4) <- pay;
  if Task.head_vtag head = Task.v_err then begin
    if Array.length t.errs = 0 then t.errs <- Array.make (Array.length a / row) "";
    t.errs.(slot) <- err
  end;
  Pqueue.add_tagged t.reduction (priority_row t.policy t.g head src dst) ~tag:stamp ~aux:gen slot

let push_stamped t stamp gen task =
  match task with
  | Task.Marking m ->
    if stamp >= 0 then
      invalid_arg
        (Printf.sprintf "Pool.push: marking task on PE %d carries lineage stamp %d" t.pe
           stamp);
    Mark_ring.push t.marking (Task.lane_v m) (Task.lane_par m) (Task.lane_meta m)
  | Task.Reduction r ->
    push_row t ~stamp ~gen (Task.red_head r) (Task.red_src r) (Task.red_dst r) (Task.red_key r)
      (Task.red_pay r) (Task.red_err r)

let push ?(stamp = -1) t task = push_stamped t stamp Task.no_gen task

let marks t = t.marking

let err_of t slot = if Array.length t.errs > 0 then t.errs.(slot) else ""

(* Hand the row in [slot] to [f], then free the slot. *)
let take t slot stamp (f : red) =
  let a = t.rows and i = row * slot in
  f stamp a.(i) a.(i + 1) a.(i + 2) a.(i + 3) a.(i + 4) (err_of t slot);
  release t slot

let stale_slot t gen slot =
  let i = row * slot in
  Task.stale_lanes t.g gen t.rows.(i + 1) t.rows.(i + 2)

let view t slot =
  let a = t.rows and i = row * slot in
  Task.Reduction
    (Task.reduction_of_lanes a.(i) a.(i + 1) a.(i + 2) a.(i + 3) a.(i + 4) (err_of t slot))

(* Budgeted callback drains for the engine's per-step budget loops, one
   ring call per budget: [drain_lanes] serves the reduction queue first
   and lends what is left of the budget to marking. Nothing pushes into
   a pool while its budget runs (sends go through the network), so the
   reduction queue cannot refill once it ran dry, and a row is read in
   place before its slot is freed. A stale reduction goes to [dead]
   without using the budget, so live ones run as if it had never been
   queued. *)
let drain_marking t ~budget mark =
  let (_ : int) = Mark_ring.drain t.marking ~budget mark in
  ()

let drain_lanes t ~budget ~red ~dead ~mark =
  let q = t.reduction in
  let n = ref 0 in
  while !n < budget && not (Pqueue.is_empty q) do
    let stamp = Pqueue.min_tag q and gen = Pqueue.min_aux q in
    let slot = Pqueue.pop_min q in
    if stale_slot t gen slot then take t slot stamp dead
    else begin
      take t slot stamp red;
      incr n
    end
  done;
  if !n < budget then drain_marking t ~budget:(budget - !n) mark

let drain t ~budget f =
  drain_lanes t ~budget
    ~red:(fun stamp head src dst key pay err ->
      f (Task.Reduction (Task.reduction_of_lanes head src dst key pay err)) stamp)
    ~dead:(fun _ _ _ _ _ _ _ -> ())
    ~mark:(fun v par meta -> f (Task.Marking (Task.mark_of_lanes v par meta)) (-1))

let length t = Mark_ring.length t.marking + Pqueue.length t.reduction

let is_empty t = Mark_ring.length t.marking = 0 && Pqueue.is_empty t.reduction

let tasks t =
  let live = ref [] in
  Pqueue.iter_sorted_aux
    (fun gen slot -> if not (stale_slot t gen slot) then live := view t slot :: !live)
    t.reduction;
  List.map (fun m -> Task.Marking m) (Mark_ring.to_list t.marking) @ List.rev !live

let iter_endpoints t f =
  Pqueue.iter
    (fun _ slot ->
      let i = row * slot in
      let src = t.rows.(i + 1) and dst = t.rows.(i + 2) in
      if src >= 0 then f src;
      if dst >= 0 then f dst)
    t.reduction

let purge t =
  let n = length t in
  Pqueue.filter_tagged_in_place
    (fun _ stamp _ slot ->
      (match t.lineage with Some l when stamp >= 0 -> Dgr_obs.Lineage.drop l stamp | _ -> ());
      release t slot;
      false)
    t.reduction;
  Mark_ring.clear t.marking;
  n

(* Run right after restructure's releases: the entries they made stale
   go to [dead] first, then the live ones take their new priorities. *)
let reprioritize ?(dead = fun _ _ _ _ _ _ _ -> ()) t =
  Pqueue.filter_tagged_in_place
    (fun _ stamp gen slot ->
      if stale_slot t gen slot then begin
        take t slot stamp dead;
        false
      end
      else true)
    t.reduction;
  let changed = ref 0 in
  Pqueue.map_priorities
    (fun old slot ->
      let i = row * slot in
      let p = priority_row t.policy t.g t.rows.(i) t.rows.(i + 1) t.rows.(i + 2) in
      if p <> old then incr changed;
      p)
    t.reduction;
  !changed
