(* The outside-in layer ladder: host cost per operation of each layer's
   public entry points, measured on the workload's own graph and task mix
   (a machine of the workload stepped part-way, so the graph, free lists
   and pending tasks are the ones the workload really produces). Each
   rung reports nanoseconds and minor-heap words per operation. *)

open Dgr_graph
open Dgr_sim

type cost = { ns : float; words : float }

type t = {
  alloc_release : cost;  (** one [Graph.alloc] + [Graph.release] pair *)
  iter_children : cost;  (** per edge visited *)
  checkpoint_sync : cost;
      (** one incremental sync of every PE's slice: the per-step cost while
          the crash plane is active *)
  checkpoint_restore : cost;  (** one restore of one PE's slice *)
  pqueue_add_pop : cost;  (** per task *)
  pool_push_pop : cost;  (** per task, [Pool.push] then [Pool.drain] *)
  send_deliver : cost;  (** per task, [Network.send] → [deliver_into], fault-free *)
  reliable : cost;  (** the same over the lossy channel, retransmits included *)
  mark : cost;  (** per mark task of a full [Sync_engine.mark] *)
}

(* Run [f] (doing [ops] operations per call) in doubling batches until one
   batch lasts [min_s]; report that batch's per-operation cost. *)
let measure ?spans ?(min_s = 0.02) name ~ops f =
  Spans.span spans ("ladder." ^ name) (fun () ->
      f ();
      let rec go calls =
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to calls do
          f ()
        done;
        let dt = Unix.gettimeofday () -. t0 in
        let dw = Gc.minor_words () -. w0 in
        if dt < min_s then go (2 * calls)
        else
          let n = float_of_int (calls * Int.max 1 ops) in
          { ns = dt *. 1e9 /. n; words = dw /. n }
      in
      go 1)

(* The lossy channel without stalls or crashes: those are PE events, not
   network ones. *)
let lossy_channel =
  { Faults.none with Faults.drop = 0.02; duplicate = 0.01; delay = 0.02; fault_seed = 1 }

(* The pending tasks of the machine, repeated to at least 256 so that the
   per-call overhead of each rung is amortised. *)
let task_mix e =
  let pending =
    match Engine.pending_tasks e with
    | [] -> [ Dgr_task.Task.request (Graph.root (Engine.graph e)) Demand.Eager ]
    | l -> l
  in
  let base = Array.of_list pending in
  Array.init (Int.max 256 (Array.length base)) (fun i -> base.(i mod Array.length base))

let run ?spans ?min_s (w : Workloads.t) ~seed =
  Option.iter (fun sp -> Spans.start_rep sp ~lane:0) spans;
  let top = Option.map (fun sp -> Spans.enter sp "ladder") spans in
  let seed = Workloads.input_seed ~seed ~input:0 ~machine:0 in
  let e = Rep.setup w ~seed ~domains:1 in
  let warm = Int.min 1_000 (Option.value w.steps ~default:Workloads.max_steps) in
  for _ = 1 to warm do
    if not (Engine.finished e) then Engine.step e
  done;
  let g = Engine.graph e in
  let pes = Graph.num_pes g in
  let tasks = task_mix e in
  let ntasks = Array.length tasks in
  let measure = measure ?spans ?min_s in
  let alloc_release =
    let k = if Graph.headroom g < 1024 then 1 else 512 in
    let vids = Array.make k 0 in
    measure "graph.alloc_release" ~ops:k (fun () ->
        for i = 0 to k - 1 do
          vids.(i) <- Vertex.id (Graph.alloc ~from:(i mod pes) g (Label.Int 0))
        done;
        Array.iter (Graph.release g) vids)
  in
  let iter_children =
    let live = Array.of_list (Graph.live_vids g) in
    let edges = ref 0 in
    let bump _ = incr edges in
    Array.iter (fun v -> Graph.iter_children g v bump) live;
    measure "graph.iter_children" ~ops:!edges (fun () ->
        Array.iter (fun v -> Graph.iter_children g v bump) live)
  in
  let pqueue_add_pop =
    let prios = Array.map (Pool.priority_of Pool.Dynamic g) tasks in
    let q = Dgr_util.Pqueue.create () in
    let sink _ _ = () in
    measure "pqueue.add_pop" ~ops:ntasks (fun () ->
        Array.iteri (fun i task -> Dgr_util.Pqueue.add q prios.(i) task) tasks;
        while Dgr_util.Pqueue.pop_tagged_with q sink do
          ()
        done)
  in
  let pool_push_pop =
    let pool = Pool.create Pool.Dynamic g in
    let sink _ _ = () in
    measure "pool.push_pop" ~ops:ntasks (fun () ->
        Array.iter (fun task -> Pool.push pool task) tasks;
        Pool.drain pool ~budget:max_int sink)
  in
  let dst =
    Array.map
      (fun task ->
        let v = Dgr_task.Task.exec_vid task in
        if v < 0 then 0 else Vertex.pe (Graph.vertex g v))
      tasks
  in
  let transport name net =
    let now = ref 0 in
    let push _ _ _ = () in
    measure name ~ops:ntasks (fun () ->
        incr now;
        Array.iteri
          (fun i task -> Network.send ~src:(i mod pes) net ~arrival:!now ~pe:dst.(i) task)
          tasks;
        Network.deliver_into net ~now:!now ~push;
        while Network.size net > 0 do
          incr now;
          Network.deliver_into net ~now:!now ~push
        done)
  in
  let send_deliver = transport "network.send_deliver" (Network.create ()) in
  let reliable =
    transport "network.reliable" (Network.create ~faults:(Faults.create lossy_channel) ())
  in
  let mark =
    let marks = ref 1 in
    let f () =
      Graph.reset_plane g Plane.MR;
      let run = Dgr_core.Sync_engine.mark g Dgr_core.Run.Priority ~seeds:[ Graph.root g ] in
      marks := Int.max 1 (Dgr_core.Run.marks_total run)
    in
    f ();
    measure "marking.mark" ~ops:!marks f
  in
  let cps = Array.init pes (fun pe -> Checkpoint.create g ~pe) in
  let now = ref 0 in
  Array.iter (fun cp -> ignore (Checkpoint.sync cp ~now:0)) cps;
  let checkpoint_sync =
    measure "checkpoint.sync" ~ops:1 (fun () ->
        incr now;
        Array.iter (fun cp -> ignore (Checkpoint.sync cp ~now:!now)) cps)
  in
  let checkpoint_restore =
    measure "checkpoint.restore" ~ops:1 (fun () -> Checkpoint.restore cps.(0))
  in
  Engine.dispose e;
  Option.iter (fun sp -> Option.iter (Spans.leave sp) top) spans;
  {
    alloc_release;
    iter_children;
    checkpoint_sync;
    checkpoint_restore;
    pqueue_add_pop;
    pool_push_pop;
    send_deliver;
    reliable;
    mark;
  }
