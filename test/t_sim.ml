(* Simulator plumbing: pools, network, engine behaviour. *)
open Dgr_graph
open Dgr_sim
open Dgr_task

let mk_graph () =
  let g = Graph.create ~num_pes:2 () in
  let b = Builder.add g (Label.Int 1) [] in
  let a = Builder.add_root g Label.If [ b ] in
  (g, a, b)

let test_pool_policy_bands () =
  let g, a, b = mk_graph () in
  let vital = Task.request ~src:a b Demand.Vital in
  let eager = Task.request ~src:a b Demand.Eager in
  let mark = Task.Marking (Task.Mark1 { v = a; par = Plane.Rootpar; ep = 0 }) in
  Alcotest.(check int) "marking always first" 0 (Pool.priority_of Pool.Dynamic g mark);
  Alcotest.(check bool) "flat ignores demand" true
    (Pool.priority_of Pool.Flat g vital = Pool.priority_of Pool.Flat g eager);
  Alcotest.(check bool) "by-demand separates" true
    (Pool.priority_of Pool.By_demand g vital < Pool.priority_of Pool.By_demand g eager);
  Alcotest.(check bool) "dynamic separates" true
    (Pool.priority_of Pool.Dynamic g vital < Pool.priority_of Pool.Dynamic g eager)

let test_pool_dynamic_uses_classification () =
  let g, a, b = mk_graph () in
  let eager = Task.request ~src:a b Demand.Eager in
  let before = Pool.priority_of Pool.Dynamic g eager in
  Vertex.set_sched_prior (Graph.vertex g b) @@ 3;
  let after = Pool.priority_of Pool.Dynamic g eager in
  Alcotest.(check bool) "classification upgrades an eager task" true (after < before);
  Vertex.set_sched_prior (Graph.vertex g b) @@ 1;
  Alcotest.(check bool) "demotion to reserve" true
    (Pool.priority_of Pool.Dynamic g eager > before)

let test_pool_vital_overrides_stale () =
  let g, a, b = mk_graph () in
  Vertex.set_sched_prior (Graph.vertex g b) @@ 1;
  let vital = Task.request ~src:a b Demand.Vital in
  Alcotest.(check int) "vital task ignores a stale reserve verdict" 2
    (Pool.priority_of Pool.Dynamic g vital)

let test_pool_source_inheritance () =
  let g, a, b = mk_graph () in
  Vertex.set_sched_prior (Graph.vertex g a) @@ 2;
  (* eager-region source: a vital-flagged task is still vital (upgrades
     travel by task), but an eager task from an eager source stays eager *)
  let eager = Task.request ~src:a b Demand.Eager in
  Alcotest.(check int) "eager inherits source class" 4 (Pool.priority_of Pool.Dynamic g eager)

let test_pool_fifo_and_separate_queues () =
  let g, a, b = mk_graph () in
  let pool = Pool.create Pool.Flat g in
  let r1 = Task.request ~src:a b Demand.Vital in
  let r2 = Task.request ~src:b a Demand.Vital in
  let m = Task.Marking (Task.Mark1 { v = a; par = Plane.Rootpar; ep = 0 }) in
  Pool.push pool r1;
  Pool.push pool m;
  Pool.push pool r2;
  Alcotest.(check int) "length counts both queues" 3 (Pool.length pool);
  (match Helpers.pop_marking pool with
  | Some (Task.Marking _) -> ()
  | _ -> Alcotest.fail "pop_marking should find the mark task");
  Alcotest.(check bool) "pop is FIFO among equals" true (Helpers.pop pool = Some r1);
  Alcotest.(check bool) "then r2" true (Helpers.pop pool = Some r2);
  Alcotest.(check bool) "empty" true (Pool.is_empty pool)

let test_pool_pop_lends_slot_to_marking () =
  let g, a, _ = mk_graph () in
  let pool = Pool.create Pool.Dynamic g in
  Pool.push pool (Task.Marking (Task.Mark1 { v = a; par = Plane.Rootpar; ep = 0 }));
  match Helpers.pop pool with
  | Some (Task.Marking _) -> ()
  | _ -> Alcotest.fail "an idle reduction slot should take marking work"

(* [push_live pool g task]: deliver [task] with the endpoint generations
   it has now, as the engine's send records them. *)
let push_live pool g task =
  match task with
  | Task.Reduction _ -> Pool.push_stamped pool (-1) (Graph.releases g) task
  | Task.Marking _ -> Pool.push pool task

let dst_of_request = function Task.Reduction (Task.Request { dst; _ }) -> dst | _ -> -1


(* A request into a released vertex is purged where it pops — without
   using up the budget — or by the re-sort restructure runs right after
   its releases, which still reports the live entries it moved. *)
let test_pool_purge_and_reprioritize () =
  let g, a, b = mk_graph () in
  let c = Vertex.id (Graph.alloc g (Label.Int 2)) in
  let d = Vertex.id (Graph.alloc g (Label.Int 3)) in
  let pool = Pool.create Pool.Dynamic g in
  (* the doomed request pops first: vital, and pushed first *)
  push_live pool g (Task.request ~src:a b Demand.Vital);
  push_live pool g (Task.request ~src:c a Demand.Eager);
  Graph.release g b;
  let ran, dropped = Helpers.drain_split ~budget:1 pool in
  Alcotest.(check (list int)) "purged one, at its pop" [ b ] dropped;
  Alcotest.(check (list int)) "the budget of one still ran the live task" [ a ] ran;
  push_live pool g (Task.request ~src:c d Demand.Eager);
  push_live pool g (Task.request ~src:c a Demand.Eager);
  Graph.release g d;
  Vertex.set_sched_prior (Graph.vertex g a) @@ 3;
  let dropped = ref [] in
  Alcotest.(check int) "reprioritize reports changes" 1
    (Pool.reprioritize pool ~dead:(fun _ _ _ dst _ _ _ -> dropped := dst :: !dropped));
  Alcotest.(check (list int)) "and purges the stale entry" [ d ] !dropped;
  Alcotest.(check int) "one left" 1 (Pool.length pool)

(* A stale entry waits in its pool until it is popped (or re-sorted),
   but the pool no longer lists it among its tasks: it will never run. *)
let test_pool_lists_live_reductions () =
  let g, a, b = mk_graph () in
  let c = Vertex.id (Graph.alloc g (Label.Int 2)) in
  let pool = Pool.create Pool.Flat g in
  List.iter
    (fun dst -> push_live pool g (Task.request ~src:a dst Demand.Vital))
    [ b; c; b; a ];
  Graph.release g b;
  Alcotest.(check int) "the stale entries still queued" 4 (Pool.length pool);
  Alcotest.(check (list int)) "live requests listed, in pop order" [ c; a ]
    (List.map dst_of_request (Pool.tasks pool))

(* Full pop orderings, policy by policy, over one mixed push set. *)
let test_pool_policy_pop_orders () =
  let g, a, b = mk_graph () in
  (* a sits in the vital region, b was classified reserve last cycle *)
  Vertex.set_sched_prior (Graph.vertex g a) @@ 3;
  Vertex.set_sched_prior (Graph.vertex g b) @@ 1;
  let e_b = Task.request ~src:a b Demand.Eager in
  let v_b = Task.request ~src:a b Demand.Vital in
  let e_a = Task.request ~src:b a Demand.Eager in
  let m = Task.Marking (Task.Mark1 { v = a; par = Plane.Rootpar; ep = 0 }) in
  let pop_all policy =
    let pool = Pool.create policy g in
    List.iter (Pool.push pool) [ e_b; v_b; e_a; m ];
    List.init 4 (fun _ -> Option.get (Helpers.pop pool))
  in
  (* Flat: pure FIFO among reduction tasks; the marking task only gets
     the idle slot at the end. *)
  Alcotest.(check bool) "flat is FIFO" true (pop_all Pool.Flat = [ e_b; v_b; e_a; m ]);
  (* By_demand: static demand only — vital first, eager FIFO, verdicts
     ignored. *)
  Alcotest.(check bool) "by-demand orders by static demand" true
    (pop_all Pool.By_demand = [ v_b; e_b; e_a; m ]);
  (* Dynamic: the cycle's verdicts reorder the eager tasks — e_a rides
     its destination's vital class ahead of e_b, which b's reserve
     verdict demotes behind everything. *)
  Alcotest.(check bool) "dynamic applies cycle verdicts" true
    (pop_all Pool.Dynamic = [ v_b; e_a; e_b; m ])

let mark i = Task.Marking (Task.Mark1 { v = i; par = Plane.Rootpar; ep = 0 })

let mark_id = function Task.Marking (Task.Mark1 { v; _ }) -> v | _ -> -1

(* The marking queue is a ring: pop from the head, push at the tail,
   wrap around the buffer's end, and unwrap when it grows. *)
let test_pool_marking_ring () =
  let g, _, _ = mk_graph () in
  let pool = Pool.create Pool.Flat g in
  let popped = ref [] in
  let take n =
    Pool.drain_marking pool ~budget:n (fun v par meta ->
        Alcotest.(check bool) "lanes decode to the pushed mark" true
          (Task.Marking (Task.mark_of_lanes v par meta) = mark v);
        popped := v :: !popped)
  in
  let ids () = List.map mark_id (Pool.tasks pool) in
  for i = 0 to 5 do
    Pool.push pool (mark i)
  done;
  take 4;
  (* 8 slots: these wrap past the buffer's end and fill it *)
  for i = 6 to 11 do
    Pool.push pool (mark i)
  done;
  Alcotest.(check (list int)) "tasks in FIFO order across the wrap"
    [ 4; 5; 6; 7; 8; 9; 10; 11 ] (ids ());
  Pool.push pool (mark 12);
  Alcotest.(check (list int)) "growth while wrapped keeps the order"
    [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ] (ids ());
  Alcotest.(check int) "purge drops every mark" 9 (Pool.purge pool);
  Alcotest.(check (list int)) "nothing left" [] (ids ());
  for i = 13 to 14 do
    Pool.push pool (mark i)
  done;
  Alcotest.(check (list int)) "the ring refills after a purge" [ 13; 14 ] (ids ());
  take max_int;
  Alcotest.(check (list int)) "pop order" [ 0; 1; 2; 3; 13; 14 ] (List.rev !popped);
  Alcotest.(check bool) "empty" true (Pool.is_empty pool);
  Alcotest.check_raises "a stamped mark is refused"
    (Invalid_argument "Pool.push: marking task on PE 0 carries lineage stamp 3") (fun () ->
      Pool.push ~stamp:3 pool (mark 0))

(* Random push / drain / purge (a crash's drop-all) against an
   all-priority-0 [Pqueue], the marking queue's previous
   representation. *)
let test_pool_marking_ring_oracle () =
  let g, _, _ = mk_graph () in
  let pool = Pool.create Pool.Flat g in
  let q = Dgr_util.Pqueue.create () in
  let rng = Dgr_util.Rng.create 7 in
  let next = ref 0 in
  for step = 1 to 3000 do
    let label what = Printf.sprintf "%s at op %d" what step in
    (match Dgr_util.Rng.int rng 8 with
    | 0 | 1 | 2 | 3 ->
      Pool.push pool (mark !next);
      Dgr_util.Pqueue.add q 0 !next;
      incr next
    | 4 | 5 ->
      let budget = Dgr_util.Rng.int rng 6 in
      let got = ref [] in
      Pool.drain_marking pool ~budget (fun v _ _ -> got := v :: !got);
      let want =
        List.filter_map
          (fun _ -> Option.map snd (Dgr_util.Pqueue.pop q))
          (List.init (Int.min budget (Dgr_util.Pqueue.length q)) Fun.id)
      in
      Alcotest.(check (list int)) (label "drain") want (List.rev !got)
    | 6 ->
      let before = Dgr_util.Pqueue.length q in
      Dgr_util.Pqueue.clear q;
      Alcotest.(check int) (label "purge") before (Pool.purge pool)
    | _ ->
      Alcotest.(check (list int)) (label "tasks")
        (List.map snd (Dgr_util.Pqueue.to_sorted_list q))
        (List.map mark_id (Pool.tasks pool)));
    Alcotest.(check int) (label "length") (Dgr_util.Pqueue.length q) (Pool.length pool)
  done

let test_network_ordering () =
  let net = Network.create () in
  let t1 = Task.request 1 Demand.Vital in
  let t2 = Task.request 2 Demand.Vital in
  let t3 = Task.request 3 Demand.Vital in
  Network.send net ~arrival:5 ~pe:0 t1;
  Network.send net ~arrival:3 ~pe:1 t2;
  Network.send net ~arrival:5 ~pe:0 t3;
  Alcotest.(check int) "in flight" 3 (Network.size net);
  Alcotest.(check bool) "nothing before time" true (Helpers.deliver net ~now:2 = []);
  Alcotest.(check bool) "delivers by arrival then send order" true
    (Helpers.deliver net ~now:5 = [ (1, t2); (0, t1); (0, t3) ]);
  Alcotest.(check int) "drained" 0 (Network.size net)

(* Batching groups but never merges: two identical marks sent on one
   link for one arrival step ride in one frame, and both are delivered. *)
let test_identical_marks_both_delivered () =
  List.iter
    (fun (name, faults) ->
      let net = Network.create ?faults () in
      let m = Task.Marking (Task.Mark1 { v = 7; par = Plane.Rootpar; ep = 0 }) in
      Network.send ~src:0 net ~arrival:2 ~pe:1 m;
      Network.send ~src:0 net ~arrival:2 ~pe:1 m;
      Alcotest.(check int) (name ^ ": both staged") 2 (Network.tasks_sent net);
      let got = Helpers.deliver net ~now:2 in
      Alcotest.(check int) (name ^ ": one frame") 1 (Network.frames_sent net);
      Alcotest.(check bool) (name ^ ": both delivered") true (got = [ (1, m); (1, m) ]))
    [ ("ideal", None); ("lossy", Some (Faults.create Faults.none)) ]

(* Marks and reductions interleaved over several links and arrivals,
   with the (destination, task) pairs in send order. *)
let mixed_sends net =
  List.init 24 (fun i ->
      let dst = i mod 3 in
      let task = if i mod 4 = 1 then Task.request (100 + i) Demand.Vital else mark (100 + i) in
      Network.send ~src:(i mod 2) net ~arrival:(2 + (i / 8)) ~pe:dst task;
      (dst, task))

let channels () =
  [
    ("ideal", Network.create ());
    ("lossy", Network.create ~faults:(Faults.create { Faults.none with Faults.fault_seed = 5 }) ());
  ]

(* The order both halves promise: fault-free arrival, then frame stage
   order, then the frame's own order — which [in_flight] lists before the
   tick — restricted to the reduction tasks, or to one PE's marks. Every
   sent task is distinct, so a task is found by value: marks travel as
   lanes and come back as fresh views. *)
let due_in_order net sent =
  let dst_of task = fst (List.find (fun (_, t) -> t = task) sent) in
  let due = List.map (fun task -> (dst_of task, task)) (Network.in_flight net) in
  let reds = List.filter (fun (_, t) -> not (Task.is_marking t)) due in
  let marks_of pe =
    List.filter_map (fun (p, t) -> if p = pe && Task.is_marking t then Some t else None) due
  in
  (reds, marks_of)

(* [deliver_into] hands up every due task, marks included: the
   reduction tasks in delivery order, then each PE's marks in delivery
   order, PEs ascending. *)
let test_deliver_into_hands_marks () =
  List.iter
    (fun (name, net) ->
      let sent = mixed_sends net in
      let reds, marks_of = due_in_order net sent in
      let expected =
        reds @ List.concat_map (fun pe -> List.map (fun t -> (pe, t)) (marks_of pe)) [ 0; 1; 2 ]
      in
      let got = Helpers.deliver net ~now:10 in
      Alcotest.(check int) (name ^ ": every task handed up") 24 (List.length got);
      Alcotest.(check int) (name ^ ": marks included") 18
        (List.length (List.filter (fun (_, t) -> Task.is_marking t) got));
      Alcotest.(check bool) (name ^ ": reductions, then each PE's marks") true (got = expected);
      Alcotest.(check int) (name ^ ": drained") 0 (Network.size net))
    (channels ())

(* The split tick: [deliver_serial] hands up only the reduction tasks,
   and [take_marks] each PE's marks, both in delivery order; a taken
   inbox stays empty. *)
let test_deliver_split_in_order () =
  List.iter
    (fun (name, net) ->
      let sent = mixed_sends net in
      let want_reds, marks_of = due_in_order net sent in
      let reds = ref [] in
      Helpers.deliver_views net ~now:10 ~push:(fun pe _ _ task -> reds := (pe, task) :: !reds);
      Alcotest.(check bool) (name ^ ": reductions in delivery order") true
        (List.rev !reds = want_reds);
      for pe = 0 to 2 do
        let marks = ref [] in
        Helpers.take_marks net ~pe (fun task -> marks := task :: !marks);
        Alcotest.(check bool) (Printf.sprintf "%s: PE %d's marks in delivery order" name pe) true
          (List.rev !marks = marks_of pe);
        let again = ref 0 in
        Helpers.take_marks net ~pe (fun _ -> incr again);
        Alcotest.(check int) (name ^ ": the inbox is emptied") 0 !again
      done;
      Alcotest.(check int) (name ^ ": drained") 0 (Network.size net))
    (channels ())

(* Over a lossy, duplicating, reordering channel every mark still
   arrives exactly once, like every reduction task. *)
let test_lossy_channel_delivers_marks () =
  let f =
    Faults.create
      { Faults.none with Faults.drop = 0.3; duplicate = 0.2; delay = 0.3; fault_seed = 9 }
  in
  let net = Network.create ~faults:f () in
  let sent = mixed_sends net in
  let got = ref [] in
  let now = ref 0 in
  while Network.size net > 0 && !now < 100_000 do
    incr now;
    got := Helpers.deliver net ~now:!now @ !got
  done;
  let canon l = List.sort compare (List.map (fun (pe, t) -> (pe, Task.to_string t)) l) in
  Alcotest.(check bool) "channel dropped frames" true (f.Faults.drops > 0);
  Alcotest.(check (list (pair int string))) "every task exactly once" (canon sent) (canon !got)

(* A task whose destination is released in flight still rides the
   network: it is delivered with the generations it was sent with and
   purged at the pool's pop. *)
let test_network_purge () =
  let g = Graph.create () in
  let v7 = Vertex.id (Graph.alloc g (Label.Int 7)) in
  let v8 = Vertex.id (Graph.alloc g (Label.Int 8)) in
  let net = Network.create () in
  let send dst =
    let task = Task.request dst Demand.Vital in
    match task with
    | Task.Reduction _ -> Network.send ~gen:(Graph.releases g) net ~arrival:1 ~pe:0 task
    | Task.Marking _ -> assert false
  in
  send v7;
  send v8;
  Graph.release g v7;
  let pool = Pool.create Pool.Flat g in
  Helpers.deliver_views net ~now:1 ~push:(fun _ stamp gen task ->
      Pool.push_stamped pool stamp gen task);
  Alcotest.(check int) "both delivered" 0 (Network.size net);
  let ran, dropped = Helpers.drain_split pool in
  Alcotest.(check (list int)) "one purged" [ v7 ] dropped;
  Alcotest.(check (list int)) "one left" [ v8 ] ran

(* The [Purge] event names the PE each stale task was bound for — it
   dies as it is delivered there — one event per task, in delivery
   order. *)
let test_network_purge_records_destination () =
  let r = Dgr_obs.Recorder.create ~num_pes:4 () in
  let g = Graph.create ~num_pes:4 () in
  let on pe = Vertex.id (Graph.alloc ~pe g (Label.Int pe)) in
  let v2 = on 2 and v0 = on 0 and v2' = on 2 and v1 = on 1 in
  let config = Engine.Config.make ~num_pes:4 ~gc:Engine.No_gc ~heap_size:None ~latency:2 () in
  let e = Engine.create ~recorder:r ~config g (Dgr_reduction.Template.create_registry ()) in
  List.iter (fun v -> Engine.inject e (Task.request v Demand.Vital)) [ v2; v0; v2'; v1 ];
  List.iter (Graph.release g) [ v2; v0; v2' ];
  let (_ : int) = Engine.run ~max_steps:100 e in
  Alcotest.(check int) "three purged" 3 (Engine.metrics e).Metrics.tasks_purged;
  let purge_events =
    List.filter_map
      (function
        | { Dgr_obs.Event.kind = Dgr_obs.Event.Purge { pe; count }; _ } -> Some (pe, count)
        | _ -> None)
      (Dgr_obs.Recorder.events r)
  in
  Alcotest.(check (list (pair int int))) "per-task purge events, real destinations"
    [ (2, 1); (2, 1); (0, 1) ] purge_events

(* One frame interleaving reductions and marks (same link, same
   arrival): [entries] lists it in send order, delivery traces a
   [Deliver] per task in that same order while handing up only the
   reductions, and the marks follow through [take_marks], in order. *)
let interleaved () =
  List.init 12 (fun i ->
      if i mod 3 = 0 then Task.request (200 + i) Demand.Vital
      else if i mod 3 = 1 then mark (200 + i)
      else
        Task.Marking
          (Task.Return { plane = Plane.MT; par = Plane.Parent (200 + i); ep = 1 lsl 40 }))

let test_interleaved_frame_order () =
  let r = Dgr_obs.Recorder.create ~num_pes:2 () in
  let net = Network.create ~recorder:r () in
  let sent = interleaved () in
  List.iter (fun task -> Network.send ~src:0 net ~arrival:3 ~pe:1 task) sent;
  Alcotest.(check bool) "entries in send order" true
    (Network.entries net = List.map (fun task -> (3, task)) sent);
  Alcotest.(check bool) "in_flight in send order" true (Network.in_flight net = sent);
  let reds = ref [] in
  Helpers.deliver_views net ~now:3 ~push:(fun _ _ _ task -> reds := task :: !reds);
  Alcotest.(check int) "one frame" 1 (Network.frames_sent net);
  let delivered =
    List.filter_map
      (function
        | { Dgr_obs.Event.kind = Dgr_obs.Event.Deliver { kind; pe; vid; _ }; _ } ->
          Some (kind, pe, vid)
        | _ -> None)
      (Dgr_obs.Recorder.events r)
  in
  Alcotest.(check bool) "a Deliver per task, in send order" true
    (delivered
    = List.map
        (fun task ->
          (Task.obs_kind task, 1, match Task.exec_vertex task with Some v -> v | None -> -1))
        sent);
  Alcotest.(check bool) "reductions handed up in order" true
    (List.rev !reds = List.filter Task.is_reduction sent);
  let marks = ref [] in
  Helpers.take_marks net ~pe:1 (fun task -> marks := task :: !marks);
  Alcotest.(check bool) "marks taken in order" true
    (List.rev !marks = List.filter Task.is_marking sent)

(* Crashes count tasks, marks and reductions alike, whatever their
   place in a frame; the other link's tasks keep their order and the
   generations they were sent with. *)
let test_interleaved_purge_and_crash_counts () =
  List.iter
    (fun (name, faults) ->
      let net = Network.create ?faults () in
      let sent = interleaved () in
      let gen task = if Task.is_reduction task then Task.exec_vid task else Task.no_gen in
      List.iter (fun task -> Network.send ~src:0 ~gen:(gen task) net ~arrival:3 ~pe:1 task) sent;
      List.iter (fun task -> Network.send ~src:2 ~gen:(gen task) net ~arrival:4 ~pe:3 task) sent;
      Alcotest.(check int) (name ^ ": crash loses the link's tasks") (List.length sent)
        (Network.crash_pe net ~pe:3);
      Alcotest.(check bool) (name ^ ": the other link survives") true
        (Network.in_flight net = sent);
      let listed = ref [] in
      Network.iter_in_flight net (fun g task -> listed := (g, task) :: !listed);
      Alcotest.(check bool) (name ^ ": and keeps its generations") true
        (List.rev !listed = List.map (fun task -> (gen task, task)) sent))
    [ ("ideal", None); ("lossy", Some (Faults.create Faults.none)) ]

let test_engine_local_vs_remote_latency () =
  (* Two vertices on different PEs: the respond crosses the boundary. *)
  let g = Graph.create ~num_pes:2 () in
  let b = Graph.alloc ~pe:1 g (Label.Int 7) in
  let a = Graph.alloc ~pe:0 g Label.Ind in
  Vertex.connect a (Vertex.id b);
  Graph.set_root g (Vertex.id a);
  let config = Engine.Config.make ~num_pes:2 ~latency:9 ~gc:Engine.No_gc () in
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps:200 e in
  Alcotest.(check bool) "finished" true (Engine.finished e);
  Alcotest.(check bool) "remote messages counted" true
    ((Engine.metrics e).Metrics.remote_messages >= 1)

let test_engine_quiescence_no_gc () =
  let g = Graph.create () in
  let (_ : Vid.t) = Builder.add_root g (Label.Int 3) [] in
  let config = Engine.Config.make ~gc:Engine.No_gc () in
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  Engine.inject_root_demand e;
  let steps = Engine.run e in
  Alcotest.(check bool) "finished fast" true (Engine.finished e && steps < 20);
  Alcotest.(check bool) "quiescent" true (Engine.quiescent e)

let test_engine_inject_and_locate () =
  let g, a, b = mk_graph () in
  ignore b;
  let config = Engine.Config.make ~num_pes:2 ~gc:Engine.No_gc () in
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  Engine.inject e (Task.request a Demand.Eager);
  Alcotest.(check int) "one pending" 1 (List.length (Engine.pending_tasks e));
  Alcotest.(check int) "locatable" 1
    (List.length (Helpers.locate_task e (fun _ -> true)))

(* Delivery parks each frame until its destination's shard pushes the
   marks, so the pools must take them on every step: a PE that executes
   nothing (stalled) and a step that runs no shard (paused) included.
   Checked as conservation: every injected mark is in flight, pooled or
   executed after every step. *)
let check_marks_conserved ~what config =
  let g = Graph.create ~num_pes:2 () in
  let b = Graph.alloc ~pe:1 g (Label.Int 7) in
  (* a chain of indirections above [b]: enough live vertices that a
     stop-the-world collection pauses the machine for several steps *)
  let top =
    List.fold_left
      (fun below _ ->
        let a = Graph.alloc ~pe:0 g Label.Ind in
        Vertex.connect a (Vertex.id below);
        a)
      b (List.init 40 Fun.id)
  in
  Graph.set_root g (Vertex.id top);
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  let pooled = ref 0 in
  for step = 0 to 39 do
    Engine.inject e
      (Task.Marking (Task.Mark1 { v = Vertex.id b; par = Plane.Rootpar; ep = step }));
    Engine.step e;
    let in_pool =
      List.length (Helpers.locate_task e Task.is_marking)
      - List.length (List.filter (fun (_, t) -> Task.is_marking t) (Helpers.network_entries e))
    in
    pooled := Int.max !pooled in_pool;
    Alcotest.(check int)
      (Printf.sprintf "%s: step %d conserves marks" what step)
      (step + 1)
      (List.length (List.filter (fun (_, t) -> Task.is_marking t) (Helpers.network_entries e))
      + in_pool
      + (Engine.metrics e).Metrics.marking_executed)
  done;
  (e, !pooled)

let test_stalled_pe_receives_marks () =
  let faults = { Faults.none with Faults.stall = 1.0; stall_max = 3; fault_seed = 1 } in
  let e, pooled =
    check_marks_conserved ~what:"stalled"
      (Engine.Config.make ~num_pes:2 ~gc:Engine.No_gc ~faults ())
  in
  Alcotest.(check int) "nothing executed" 0 (Engine.metrics e).Metrics.marking_executed;
  Alcotest.(check bool) "the stalled PE's pool holds the marks" true (pooled >= 30)

let test_paused_step_receives_marks () =
  let e, _ =
    check_marks_conserved ~what:"paused"
      (Engine.Config.make ~num_pes:2 ~gc_work_factor:1
         ~gc:(Engine.Stop_the_world { every = 10 })
         ())
  in
  Alcotest.(check bool) "some steps were paused" true
    ((Engine.metrics e).Metrics.total_pause_steps >= 10)

(* A count below 1 is refused where the config is built, by [make] and
   by the updater alike, with the field and the value in the message. *)
let config_rejects field ~make ~update ~get () =
  let expected =
    Invalid_argument (Printf.sprintf "Engine.Config: %s must be at least 1, got 0" field)
  in
  Alcotest.check_raises (field ^ " via make") expected (fun () -> ignore (make 0));
  Alcotest.check_raises (field ^ " via updater") expected (fun () ->
      ignore (update 0 Engine.Config.default));
  Alcotest.(check int) (field ^ ": 1 accepted") 1 (get (update 1 (make 1)))

(* A shard holds at least one PE. The config clamps the shard count to
   the PE count, so the engine, its reports and a BENCH row all read the
   count the machine runs, whichever of [make] and the updaters set it. *)
let test_config_clamps_domains () =
  let module C = Engine.Config in
  Alcotest.(check int) "make" 4 (C.domains (C.make ~num_pes:4 ~domains:16 ()));
  Alcotest.(check int) "with_domains" 4 (C.domains (C.with_domains 16 (C.make ~num_pes:4 ())));
  Alcotest.(check int) "with_num_pes" 2
    (C.domains (C.with_num_pes 2 (C.make ~num_pes:8 ~domains:4 ())));
  Alcotest.(check int) "a count within range is kept" 3
    (C.domains (C.make ~num_pes:8 ~domains:3 ()));
  match
    Dgr_harness.Bench.run_suite ~domains:16 ~only:[ "fib-12-concurrent" ] ~smoke:true
      ~deterministic:true ()
  with
  | [ row ] -> Alcotest.(check int) "a BENCH row" 4 row.Dgr_harness.Bench.domains
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* Fault rates are probabilities, a channel that drops everything
   delivers nothing, and a stall or downtime needs a length: all are
   refused by [make] and [with_faults]. *)
let test_config_rejects_fault_rates () =
  let rates =
    [
      ("drop", fun p -> { Faults.none with Faults.drop = p });
      ("duplicate", fun p -> { Faults.none with Faults.duplicate = p });
      ("delay", fun p -> { Faults.none with Faults.delay = p });
      ("stall", fun p -> { Faults.none with Faults.stall = p });
      ("crash", fun p -> { Faults.none with Faults.crash = p });
    ]
  in
  let with_rate field = List.assoc field rates in
  let refused what msg faults =
    let expected = Invalid_argument ("Engine.Config: faults." ^ msg) in
    Alcotest.check_raises (what ^ " via make") expected (fun () ->
        ignore (Engine.Config.make ~faults ()));
    Alcotest.check_raises (what ^ " via with_faults") expected (fun () ->
        ignore (Engine.Config.with_faults faults Engine.Config.default))
  in
  List.iter
    (fun (field, rate) ->
      refused (field ^ " < 0") (field ^ " must be in [0, 1], got -0.1") (rate (-0.1));
      refused (field ^ " > 1") (field ^ " must be in [0, 1], got 1.5") (rate 1.5))
    rates;
  refused "drop = 1" "drop must be below 1, got 1" (with_rate "drop" 1.0);
  (* A stall or a downtime is drawn from [1, max]: a max below 1 names
     no length, and is refused rather than read as 1. *)
  refused "stall_max = 0" "stall_max must be at least 1, got 0"
    { Faults.none with Faults.stall = 0.1; stall_max = 0 };
  refused "crash_down_max = 0" "crash_down_max must be at least 1, got 0"
    { Faults.none with Faults.crash = 0.05; crash_down_max = 0 };
  refused "crash_down_max < 0" "crash_down_max must be at least 1, got -3"
    { Faults.none with Faults.crash_down_max = -3 };
  List.iter
    (fun faults ->
      Alcotest.(check bool) "a max of 1 accepted" true
        (Engine.Config.faults (Engine.Config.make ~faults ()) = faults))
    [ { Faults.none with Faults.stall_max = 1 }; { Faults.none with Faults.crash_down_max = 1 } ];
  List.iter
    (fun (field, p) ->
      let faults = with_rate field p in
      Alcotest.(check bool)
        (Printf.sprintf "%s = %g accepted" field p)
        true
        (Engine.Config.faults (Engine.Config.make ~faults ()) = faults
        && Engine.Config.faults (Engine.Config.with_faults faults Engine.Config.default)
           = faults))
    [ ("drop", 0.99); ("duplicate", 1.0); ("delay", 1.0); ("stall", 1.0); ("crash", 1.0) ]

(* A latency below 1 would deliver a remote message before it was sent,
   and jitter is a probability: both are refused by [make] and by their
   updaters, NaN jitter included, with the field and the value. So are
   GC settings that cannot work: a stop-the-world period below 1 (the
   machine would never collect), a negative M_T period or idle gap, and
   a GC work factor below 1. *)
let test_config_rejects_latency_and_jitter () =
  let refused what msg ~make ~update =
    let expected = Invalid_argument ("Engine.Config: " ^ msg) in
    Alcotest.check_raises (what ^ " via make") expected (fun () -> ignore (make ()));
    Alcotest.check_raises (what ^ " via updater") expected (fun () ->
        ignore (update Engine.Config.default))
  in
  List.iter
    (fun v ->
      refused
        (Printf.sprintf "latency %d" v)
        (Printf.sprintf "latency must be at least 1, got %d" v)
        ~make:(fun () -> Engine.Config.make ~latency:v ())
        ~update:(Engine.Config.with_latency v))
    [ 0; -3 ];
  List.iter
    (fun (p, shown) ->
      refused ("jitter " ^ shown)
        ("jitter must be in [0, 1], got " ^ shown)
        ~make:(fun () -> Engine.Config.make ~jitter:p ())
        ~update:(Engine.Config.with_jitter p))
    [ (-0.2, "-0.2"); (1.5, "1.5"); (Float.nan, "nan") ];
  List.iter
    (fun (what, msg, gc) ->
      refused what msg
        ~make:(fun () -> Engine.Config.make ~gc ())
        ~update:(Engine.Config.with_gc gc))
    [
      ( "stw every 0",
        "Stop_the_world.every must be at least 1, got 0",
        Engine.Stop_the_world { every = 0 } );
      ( "deadlock_every -1",
        "Concurrent.deadlock_every must be at least 0, got -1",
        Engine.Concurrent { deadlock_every = -1; idle_gap = 50 } );
      ( "idle_gap -1",
        "Concurrent.idle_gap must be at least 0, got -1",
        Engine.Concurrent { deadlock_every = 1; idle_gap = -1 } );
    ];
  List.iter
    (fun v ->
      refused
        (Printf.sprintf "gc_work_factor %d" v)
        (Printf.sprintf "gc_work_factor must be at least 1, got %d" v)
        ~make:(fun () -> Engine.Config.make ~gc_work_factor:v ())
        ~update:(Engine.Config.with_gc_work_factor v))
    [ 0; -2 ];
  List.iter
    (fun gc ->
      Alcotest.(check bool) "edge GC setting accepted" true
        (Engine.Config.gc (Engine.Config.with_gc gc (Engine.Config.make ~gc ())) = gc))
    [
      Engine.Stop_the_world { every = 1 };
      Engine.Concurrent { deadlock_every = 0; idle_gap = 0 };
    ];
  Alcotest.(check int) "gc_work_factor 1 accepted" 1
    (Engine.Config.gc_work_factor
       (Engine.Config.with_gc_work_factor 1 (Engine.Config.make ~gc_work_factor:1 ())));
  Alcotest.(check int) "latency 1 accepted" 1
    (Engine.Config.latency (Engine.Config.with_latency 1 (Engine.Config.make ~latency:1 ())));
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "jitter %g accepted" p)
        p
        (Engine.Config.jitter (Engine.Config.with_jitter p (Engine.Config.make ~jitter:p ()))))
    [ 0.0; 1.0 ]

let test_metrics_pp () =
  let m = Metrics.create () in
  Metrics.record_pause m 5;
  Metrics.record_pause m 9;
  Alcotest.(check int) "total pause" 14 m.Metrics.total_pause_steps;
  let s = Format.asprintf "%a" Metrics.pp_summary m in
  Alcotest.(check bool) "summary renders" true (String.length s > 10)

(* The load-shape meter: each PE's executed-task count, summed at the
   barrier, adds up to the machine's executed total and does not depend
   on how many domains the PEs are sharded across. *)
let test_executed_per_pe () =
  let run domains =
    let config =
      Engine.Config.make ~num_pes:4 ~domains
        ~gc:(Engine.Concurrent { deadlock_every = 2; idle_gap = 10 })
        ()
    in
    let g, templates = Dgr_lang.Compile.load_string ~num_pes:4 (Dgr_lang.Prelude.fib 9) in
    let e = Engine.create ~config g templates in
    Engine.inject_root_demand e;
    let (_ : int) = Engine.run ~max_steps:200_000 e in
    let m = Engine.metrics e in
    let per_pe = Engine.executed_per_pe e in
    (per_pe, m.Metrics.reduction_executed + m.Metrics.marking_executed)
  in
  let one, total = run 1 and two, _ = run 2 in
  Alcotest.(check int) "one count per PE" 4 (Array.length one);
  Alcotest.(check int) "per-PE counts sum to the executed total" total
    (Array.fold_left ( + ) 0 one);
  Alcotest.(check (array int)) "same at 1 and 2 domains" one two

(* A fib's expansions allocate on the PE that expands them, so its
   reductions stay on its root's PE and one shard. [fib(n) + fib(n)]
   starts its two calls on PEs of different shards at 8 PEs and 2 or 4
   domains, so reductions run on two shards on most steps. Its end
   state — clock, result, live set, every counter and histogram — must
   not depend on how the PEs are grouped into shards. *)
let test_two_shard_reductions () =
  let prog =
    "def fib n = if n < 2 then n else fib(n - 1) + fib(n - 2);\ndef main = fib(11) + fib(11);"
  in
  let run domains =
    let config =
      Engine.Config.make ~num_pes:8 ~domains
        ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 20 })
        ~jitter:0.1 ~seed:5 ()
    in
    let g, templates = Dgr_lang.Compile.load_string ~num_pes:8 prog in
    let e = Engine.create ~config g templates in
    Engine.inject_root_demand e;
    let (_ : int) = Engine.run ~max_steps:200_000 e in
    Alcotest.(check bool) (Printf.sprintf "%d domains: run finished" domains) true
      (Engine.finished e);
    let result =
      match Engine.result e with Some v -> Format.asprintf "%a" Label.pp_value v | None -> "-"
    in
    let state =
      Printf.sprintf "%d|%s|%s|%s" (Engine.now e) result
        (String.concat "," (List.map Vid.to_string (Graph.live_vids (Engine.graph e))))
        (Metrics.to_json (Engine.metrics e))
    in
    (Digest.to_hex (Digest.string state), Engine.executed_per_pe e)
  in
  let one, per_pe = run 1 in
  let half lo = Array.fold_left ( + ) 0 (Array.sub per_pe lo 4) in
  Alcotest.(check bool)
    (Printf.sprintf "work on both halves (%d tasks on PEs 0-3, %d on 4-7)" (half 0) (half 4))
    true
    (10 * half 0 > half 4 && 10 * half 4 > half 0);
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "%d domains = 1 domain" domains)
        one
        (fst (run domains)))
    [ 2; 4 ]

(* The profiler reads the clock once per phase boundary, each reading
   closing one phase and opening the next, so the phases partition the
   step: their minor words add up exactly (whole-word counts), their
   wall-clock spans up to float rounding, and so do the merge's five
   sub-phases and the shards' budget loops. *)
let test_phases_partition () =
  let close what total parts =
    let sum = List.fold_left ( +. ) 0.0 parts in
    if Float.abs (sum -. total) > 1e-9 *. Float.abs total then
      Alcotest.failf "%s: parts sum to %.17g, total %.17g" what sum total
  in
  List.iter
    (fun (name, domains) ->
      let e = Dgr_harness.Bench.run_for_report ~domains name in
      let p = Engine.profile e in
      let what s = Printf.sprintf "%s at %d domains: %s" name domains s in
      Alcotest.(check bool) (what "steps ran") true (p.Profile.steps > 0 && p.Profile.total_ns > 0.0);
      Alcotest.(check bool) (what "the split was clocked") true
        (p.Profile.transport_ns > 0.0 && p.Profile.execute_ns > 0.0);
      Alcotest.(check bool) (what "budget loops within execute") true
        (p.Profile.mark_ns +. p.Profile.red_ns <= p.Profile.execute_ns);
      Alcotest.(check (float 0.0))
        (what "phase words sum to total_mw")
        p.Profile.total_mw
        (p.Profile.transport_mw +. p.Profile.execute_mw +. p.Profile.merge_mw +. p.Profile.gc_mw
       +. p.Profile.book_mw);
      close (what "phase ns vs total_ns") p.Profile.total_ns
        [
          p.Profile.transport_ns; p.Profile.execute_ns; p.Profile.merge_ns; p.Profile.gc_ns;
          p.Profile.book_ns;
        ];
      close (what "merge sub-phases vs merge_ns") p.Profile.merge_ns
        [
          p.Profile.drain_ns; p.Profile.absorb_ns; p.Profile.close_ns; p.Profile.flush_ns;
          p.Profile.replay_ns;
        ];
      Alcotest.(check bool) (what "restr_ns <= gc_ns") true (p.Profile.restr_ns <= p.Profile.gc_ns);
      Alcotest.(check int) (what "one shard_ns per shard") domains (Array.length p.Profile.shard_ns);
      close (what "shard_ns vs mark_ns + red_ns")
        (p.Profile.mark_ns +. p.Profile.red_ns)
        (Array.to_list p.Profile.shard_ns))
    [
      ("storm-tree-8k", 1); ("storm-tree-8k", 2); ("fib-12-concurrent", 1); ("fib-12-concurrent", 2);
    ]

(* A step on which a cycle ends — its restructure passes walk every
   slot — shows its restructure time inside its GC time, and GC and
   bookkeeping inside the step's. *)
let test_gc_exact_cycle_end () =
  let config =
    Engine.Config.make ~num_pes:4 ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 5 }) ()
  in
  let g, templates = Dgr_lang.Compile.load_string ~num_pes:4 (Dgr_lang.Prelude.sum_range 400) in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  let cycles () = (Engine.metrics e).Metrics.cycles_completed in
  let found = ref false and steps = ref 0 in
  while (not !found) && !steps < 100_000 do
    let n = Engine.now e and c = cycles () and p0 = Engine.profile e in
    Engine.step e;
    incr steps;
    if cycles () > c then begin
      found := true;
      let p = Engine.profile e in
      let d f = f p -. f p0 in
      let restr = d (fun p -> p.Profile.restr_ns) and gc = d (fun p -> p.Profile.gc_ns) in
      let total = d (fun p -> p.Profile.total_ns) and book = d (fun p -> p.Profile.book_ns) in
      Alcotest.(check bool)
        (Printf.sprintf "step %d: restructure %.0f ns > 0, within gc %.0f ns" n restr gc)
        true
        (restr > 0.0 && restr <= gc);
      Alcotest.(check bool)
        (Printf.sprintf "step %d: gc %.0f + bookkeeping %.0f within the step's %.0f ns" n gc book
           total)
        true
        (gc +. book <= total)
    end
  done;
  Alcotest.(check bool) "a cycle ended" true !found

(* A machine with nothing to do pays nothing to step: no collector, no
   task, 8 PEs on one domain, 1,000 steps, not one minor word. The
   failure message names the phase that allocated. *)
let test_idle_step_alloc_free () =
  let g = Graph.create ~num_pes:8 () in
  let config = Engine.Config.make ~num_pes:8 ~gc:Engine.No_gc ~domains:1 () in
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  for _ = 1 to 100 do
    Engine.step e
  done;
  let p0 = Engine.profile e in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Engine.step e
  done;
  let words = Gc.minor_words () -. w0 in
  let p = Engine.profile e in
  Alcotest.(check (float 0.0))
    (Printf.sprintf
       "minor words over 1,000 idle steps (transport %.0f, execute %.0f, merge %.0f, gc %.0f, \
        bookkeeping %.0f)"
       (p.Profile.transport_mw -. p0.Profile.transport_mw)
       (p.Profile.execute_mw -. p0.Profile.execute_mw)
       (p.Profile.merge_mw -. p0.Profile.merge_mw)
       (p.Profile.gc_mw -. p0.Profile.gc_mw)
       (p.Profile.book_mw -. p0.Profile.book_mw))
    0.0 words

(* The reduction path's allocation, read off the engine's own meters. *)

(* A stalled expansion and its retry allocate nothing: [big]'s 199-slot
   body exceeds a PE's 128-slot share of a 1,024-slot heap on 8 PEs, so
   its one [Apply] stalls, parks, and is re-sent every 64 steps (the
   machine as a whole is not under pressure), forever. Each retry is a
   delivery, an execution that parks the task again, and a re-send; the
   bound, one word, fails on a single boxed option per retry. *)
let test_stall_retry_alloc () =
  let body = String.concat " + " (List.init 200 (fun _ -> "x")) in
  let g, templates =
    Dgr_lang.Compile.load_string ~num_pes:8
      (Printf.sprintf "def big x = %s;\ndef main = big(1);" body)
  in
  let config =
    Engine.Config.make ~num_pes:8 ~gc:Engine.No_gc ~heap_size:(Some 1024) ~domains:1 ()
  in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  for _ = 1 to 256 do
    Engine.step e
  done;
  let red = Engine.reducer e in
  let stalls0 = red.Dgr_reduction.Reducer.alloc_stalls in
  let w0 = Gc.minor_words () in
  for _ = 1 to 6_400 do
    Engine.step e
  done;
  let words = Gc.minor_words () -. w0 in
  let retries = red.Dgr_reduction.Reducer.alloc_stalls - stalls0 in
  Alcotest.(check int) "one retry per 64 steps" 100 retries;
  Alcotest.(check bool) "still parked" true (Dgr_reduction.Reducer.parked_count red = 1);
  let per_retry = words /. float_of_int retries in
  if per_retry > 1.0 then
    Alcotest.failf "a stalled retry and its re-send allocate %.2f minor words (bound 1)"
      per_retry

(* Every executed reduction of a concurrent fib 12 run allocates at most
   [bound] minor words in the execute phase: each live response's value
   and each expansion's fresh slots, nothing per send (a send is lanes),
   retry, primitive or rewrite. The marks that share the phase allocate
   next to nothing. Reads 14.80. *)
let test_reduction_alloc_per_task () =
  let bound = 18.0 in
  let g, templates =
    Dgr_lang.Compile.load_string ~num_pes:4 (Dgr_lang.Prelude.fib 12)
  in
  let config = Engine.Config.make ~num_pes:4 ~domains:1 () in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps:100_000 e in
  let p = Engine.profile e in
  let reductions = (Engine.metrics e).Metrics.reduction_executed in
  Alcotest.(check (option int)) "fib 12"
    (Some (Dgr_lang.Prelude.fib_expected 12))
    (match Engine.result e with Some (Label.V_int n) -> Some n | _ -> None);
  let per_task = p.Profile.execute_mw /. float_of_int reductions in
  if per_task > bound then
    Alcotest.failf "%.2f execute-phase minor words per reduction over %d reductions (bound %.0f)"
      per_task reductions bound

(* A reduction travels as lanes from its send to its execution: a
   request circulating through a self-forwarding [Ind] (perfbench's
   "black hole") on a collector-less machine allocates nothing per hop —
   its send, frame, delivery, pool entry and execution. A boxed task per
   send would cost 9 words. *)
let test_forwarded_request_alloc_free () =
  let g = Graph.create ~num_pes:2 () in
  let hole = Builder.add g Label.Ind [] in
  Vertex.set_args (Graph.vertex g hole) [ hole ];
  Graph.set_root g hole;
  let config = Engine.Config.make ~num_pes:2 ~gc:Engine.No_gc ~heap_size:None ~domains:1 () in
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  Engine.inject e (Task.request hole Demand.Vital);
  for _ = 1 to 200 do
    Engine.step e
  done;
  let requests () = (Engine.reducer e).Dgr_reduction.Reducer.requests_executed in
  let r0 = requests () and w0 = Gc.minor_words () in
  for _ = 1 to 2_000 do
    Engine.step e
  done;
  let words = Gc.minor_words () -. w0 and forwarded = requests () - r0 in
  Alcotest.(check bool) "the request keeps circulating" true (forwarded >= 1_000);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words per forwarded request over %d hops" forwarded)
    0.0
    (words /. float_of_int forwarded)

(* ---- The busy set ----------------------------------------------------
   A step visits only its busy PEs. What makes that safe: after every
   step, a PE outside the set has an empty pool and no parked mark
   frame, so skipping it skips nothing. *)

let fib_machine ?(heap_size = Some 50_000) ?(faults = Faults.none) ?(domains = 1)
    ?(gc = Engine.Concurrent { deadlock_every = 1; idle_gap = 50 }) ~num_pes n =
  let config = Engine.Config.make ~num_pes ~domains ~heap_size ~faults ~gc () in
  let g, templates = Dgr_lang.Compile.load_string ~num_pes (Dgr_lang.Prelude.fib n) in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  e

let check_idle_pes_empty what e =
  let busy = Engine.busy_pes e in
  for pe = 0 to Engine.Config.num_pes (Engine.config e) - 1 do
    if not (List.mem pe busy) then begin
      let pooled = Pool.length (Engine.pool e pe)
      and parked = Network.parked_frames (Engine.network e) ~pe in
      if pooled + parked > 0 then
        Alcotest.failf "%s, after step %d: PE %d is outside the busy set [%s] with %d pooled \
                        task(s) and %d parked frame(s)"
          what (Engine.now e - 1) pe
          (String.concat " " (List.map string_of_int busy))
          pooled parked
    end
  done

let pools_reduction e pe = List.exists (fun t -> not (Task.is_marking t)) (Pool.tasks (Engine.pool e pe))

(* A faulty, crashing, stalling fib 12 on 6 PEs, checked after every
   step at 1, 2 and 4 shards (4 is uneven). The runs must also agree on
   the set, step by step. Each case the set has to get right is seen at
   least once: a PE whose first task arrives mid-run, a PE that drains
   empty and is fed again, a stalled PE holding reductions, and a crash
   that re-homes vertices onto a PE that had been idle. *)
let test_busy_set_invariant () =
  let faults =
    {
      Faults.drop = 0.05;
      duplicate = 0.05;
      delay = 0.1;
      stall = 0.05;
      stall_max = 6;
      crash = 0.004;
      crash_down_max = 30;
      fault_seed = 3;
    }
  in
  let num_pes = 6 and steps = 6_000 in
  let run domains =
    let e = fib_machine ~faults ~domains ~num_pes 12 in
    let what = Printf.sprintf "domains=%d" domains in
    let first = Array.make num_pes (-1) and left = Array.make num_pes false in
    let refed = ref false and stalled_work = ref false and rehomed_idle = ref false in
    let trail = ref [] in
    for _ = 1 to steps do
      let crashes = (Engine.metrics e).Metrics.crashes in
      let ever = Array.map (fun s -> s >= 0) first in
      Engine.step e;
      check_idle_pes_empty what e;
      let busy = Engine.busy_pes e in
      trail := busy :: !trail;
      for pe = 0 to num_pes - 1 do
        let inside = List.mem pe busy in
        if inside && first.(pe) < 0 then first.(pe) <- Engine.now e;
        if inside && left.(pe) then refed := true;
        if (not inside) && first.(pe) >= 0 then left.(pe) <- true;
        if inside && Engine.pe_stalled e pe && pools_reduction e pe then stalled_work := true;
        if (Engine.metrics e).Metrics.crashes > crashes && inside && not ever.(pe) then
          rehomed_idle := true
      done
    done;
    (e, first, !refed, !stalled_work, !rehomed_idle, List.rev !trail)
  in
  let e, first, refed, stalled_work, _, trail = run 1 in
  let m = Engine.metrics e in
  Alcotest.(check bool) "the run crashed" true (m.Metrics.crashes > 0);
  Alcotest.(check bool) "the run stalled" true (m.Metrics.stalls > 0);
  Alcotest.(check bool) "a PE's first task arrives mid-run" true
    (Array.exists (fun s -> s >= 100) first);
  Alcotest.(check bool) "a PE drains empty and is fed again" true refed;
  Alcotest.(check bool) "a stalled PE holds pooled reductions" true stalled_work;
  List.iter
    (fun d ->
      let _, _, _, _, _, trail' = run d in
      Alcotest.(check bool) (Printf.sprintf "the busy set at %d domains" d) true (trail = trail'))
    [ 2; 4 ]

(* A crash re-homes the busy PE's vertices round-robin onto PEs that
   never had work: a mark wave over them makes those PEs busy, and the
   set stays exact throughout. *)
let test_busy_set_rehome_onto_idle () =
  let num_pes = 4 in
  let e = fib_machine ~num_pes ~heap_size:None 12 in
  for _ = 1 to 300 do
    Engine.step e;
    check_idle_pes_empty "before the crash" e
  done;
  let executed = Engine.executed_per_pe e in
  let worker = ref 0 in
  Array.iteri (fun pe n -> if n > executed.(!worker) then worker := pe) executed;
  let idle = List.filter (fun pe -> executed.(pe) = 0) (List.init num_pes Fun.id) in
  Alcotest.(check bool) "some PE has had no work" true (idle <> []);
  Engine.inject_crash e ~pe:!worker ~down:50;
  let joined = ref false in
  for _ = 1 to 600 do
    Engine.step e;
    check_idle_pes_empty "after the crash" e;
    if List.exists (fun pe -> List.mem pe (Engine.busy_pes e)) idle then joined := true
  done;
  Alcotest.(check bool) "a PE idle before the crash joins the busy set" true !joined

(* A down PE executes nothing, but the marks delivery parks for it still
   reach its pool: the park makes it busy, its turn takes them, and it
   stays busy while they wait. *)
let test_busy_set_down_pe_takes_marks () =
  let g = Graph.create ~num_pes:2 () in
  let b = Graph.alloc ~pe:1 g (Label.Int 7) in
  let top = Graph.alloc ~pe:0 g Label.Ind in
  Vertex.connect top (Vertex.id b);
  Graph.set_root g (Vertex.id top);
  let config = Engine.Config.make ~num_pes:2 ~gc:Engine.No_gc () in
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  Engine.inject_crash e ~pe:1 ~down:100;
  (* The crash re-homed [b]; a vertex still homed on the down PE is
     what a mark would address there. *)
  Vertex.set_pe (Graph.vertex g (Vertex.id b)) 1;
  for step = 0 to 19 do
    Engine.inject e
      (Task.Marking (Task.Mark1 { v = Vertex.id b; par = Plane.Rootpar; ep = step }));
    Engine.step e;
    check_idle_pes_empty "down PE" e
  done;
  Alcotest.(check bool) "PE 1 is down" true (Engine.pe_down e 1);
  Alcotest.(check bool) "PE 1 is busy" true (List.mem 1 (Engine.busy_pes e));
  Alcotest.(check bool) "its pool holds the marks" true (Pool.length (Engine.pool e 1) >= 15);
  Alcotest.(check int) "nothing executed" 0 (Engine.metrics e).Metrics.marking_executed

(* PE visits follow the work: fib 12 keeps its work on one PE, so the
   visits per step at 64 and 256 PEs stay within 10% of the 8-PE
   figure. A step that visited every PE would read num_pes per step. *)
let test_visits_follow_work () =
  let per_step pes =
    let e = fib_machine ~num_pes:pes ~heap_size:None 12 in
    ignore (Engine.run ~max_steps:200_000 e : int);
    Alcotest.(check bool) (Printf.sprintf "fib 12 finishes on %d PEs" pes) true (Engine.finished e);
    float_of_int (Engine.pe_visits e) /. float_of_int (Engine.now e)
  in
  let base = per_step 8 in
  Alcotest.(check bool) (Printf.sprintf "8 PEs: %.2f visits/step, well under 8" base) true
    (base < 4.0);
  List.iter
    (fun pes ->
      let v = per_step pes in
      Alcotest.(check bool)
        (Printf.sprintf "%d PEs: %.3f visits/step within 10%% of %.3f" pes v base)
        true
        (Float.abs (v -. base) <= 0.1 *. base))
    [ 64; 256 ]

(* ---- O(1) graph counts ----------------------------------------------
   [Graph.live_count] and [Graph.headroom] read running counts. The
   folds they replaced are the oracle: every slot counted, every home's
   free list measured, every home's [headroom_for] summed. *)

let fold_vertex_count g =
  let n = ref 0 in
  Graph.iter_all (fun _ -> incr n) g;
  !n

let fold_free_count g =
  if not (Graph.partitioned g) then List.length (Graph.free_list g)
  else
    List.fold_left
      (fun acc pe -> acc + List.length (Graph.home_free_list g ~pe))
      0
      (List.init (Graph.num_pes g) Fun.id)

let fold_headroom g =
  match Graph.capacity g with
  | None -> max_int
  | Some _ when not (Graph.partitioned g) -> Graph.headroom_for g ~pe:0
  | Some _ ->
    List.fold_left
      (fun acc pe -> acc + Graph.headroom_for g ~pe)
      0
      (List.init (Graph.num_pes g) Fun.id)

let check_counts what g =
  let vc = fold_vertex_count g and fc = fold_free_count g in
  Alcotest.(check int) (what ^ ": vertex_count") vc (Graph.vertex_count g);
  Alcotest.(check int) (what ^ ": free_count") fc (Graph.free_count g);
  Alcotest.(check int) (what ^ ": live_count") (vc - fc) (Graph.live_count g);
  Alcotest.(check int) (what ^ ": headroom") (fold_headroom g) (Graph.headroom g)

(* Random births, releases, capacity changes and crash restores (in
   place, and into a fresh graph, which regrows the segments), on 1 to
   5 homes, checked against the folds after every operation. *)
let test_graph_counts_match_folds () =
  let module Rng = Dgr_util.Rng in
  for seed = 0 to 19 do
    let rng = Rng.create seed in
    let pes = 1 + (seed mod 5) in
    let g = Graph.create ~num_pes:pes () in
    for _ = 1 to Rng.int rng 30 do
      ignore (Graph.alloc g (Label.Int 0) : Vertex.t)
    done;
    Graph.preallocate g (Rng.int rng 10);
    if seed mod 3 = 0 then Graph.set_capacity g (Some (Graph.vertex_count g + 40));
    check_counts (Printf.sprintf "seed %d, dense" seed) g;
    let base = Graph.vertex_count g in
    Graph.partition g ~pes;
    let cks = Array.init pes (fun pe -> Checkpoint.create g ~pe) in
    Array.iter (fun c -> ignore (Checkpoint.sync c ~now:0 : int)) cks;
    for op = 1 to 400 do
      let what = Printf.sprintf "seed %d, op %d" seed op in
      (match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 -> (
        try ignore (Graph.alloc_from g ~from:(Rng.int rng pes) (Label.Int op) : Vertex.t)
        with Graph.Out_of_vertices -> ())
      | 4 | 5 | 6 -> (
        match Graph.live_vids g with
        | [] -> ()
        | live -> Graph.release g (List.nth live (Rng.int rng (List.length live))))
      | 7 ->
        Graph.set_capacity g
          (if Rng.int rng 3 = 0 then None
           else Some (Graph.vertex_count g + Rng.int rng (8 * pes)))
      | 8 ->
        let c = cks.(Rng.int rng pes) in
        if Rng.int rng 2 = 0 then ignore (Checkpoint.sync c ~now:op : int)
        else Checkpoint.restore c
      | _ ->
        (* the same dense prefix, then segments regrown by the restore *)
        let fresh = Graph.create ~num_pes:pes () in
        Graph.preallocate fresh base;
        Graph.partition fresh ~pes;
        Array.iter (fun c -> Checkpoint.restore ~into:fresh c) cks;
        check_counts (what ^ ", restored into a fresh graph") fresh);
      check_counts what g
    done
  done

let suite =
  [
    Alcotest.test_case "pool priority bands" `Quick test_pool_policy_bands;
    Alcotest.test_case "dynamic uses marking classification" `Quick
      test_pool_dynamic_uses_classification;
    Alcotest.test_case "vital overrides stale verdicts" `Quick test_pool_vital_overrides_stale;
    Alcotest.test_case "eager inherits source class" `Quick test_pool_source_inheritance;
    Alcotest.test_case "fifo ties, separate queues" `Quick test_pool_fifo_and_separate_queues;
    Alcotest.test_case "idle slots lend to marking" `Quick test_pool_pop_lends_slot_to_marking;
    Alcotest.test_case "pool purge / reprioritize" `Quick test_pool_purge_and_reprioritize;
    Alcotest.test_case "policy pop orders" `Quick test_pool_policy_pop_orders;
    Alcotest.test_case "marking ring wraps, grows, purges" `Quick test_pool_marking_ring;
    Alcotest.test_case "marking ring = priority-0 pqueue" `Quick test_pool_marking_ring_oracle;
    Alcotest.test_case "network ordering" `Quick test_network_ordering;
    Alcotest.test_case "identical marks both delivered" `Quick
      test_identical_marks_both_delivered;
    Alcotest.test_case "deliver_into hands marks in order" `Quick test_deliver_into_hands_marks;
    Alcotest.test_case "split delivery in order" `Quick test_deliver_split_in_order;
    Alcotest.test_case "lossy channel delivers marks" `Quick test_lossy_channel_delivers_marks;
    Alcotest.test_case "network purge" `Quick test_network_purge;
    Alcotest.test_case "interleaved frame keeps its order" `Quick test_interleaved_frame_order;
    Alcotest.test_case "interleaved purge and crash counts" `Quick
      test_interleaved_purge_and_crash_counts;
    Alcotest.test_case "network purge records destination" `Quick
      test_network_purge_records_destination;
    Alcotest.test_case "pool lists only live reductions" `Quick test_pool_lists_live_reductions;
    Alcotest.test_case "remote latency accounting" `Quick test_engine_local_vs_remote_latency;
    Alcotest.test_case "quiescence without gc" `Quick test_engine_quiescence_no_gc;
    Alcotest.test_case "inject and locate" `Quick test_engine_inject_and_locate;
    Alcotest.test_case "stalled PE receives its marks" `Quick test_stalled_pe_receives_marks;
    Alcotest.test_case "paused step receives its marks" `Quick test_paused_step_receives_marks;
    Alcotest.test_case "metrics" `Quick test_metrics_pp;
    Alcotest.test_case "config rejects num_pes < 1" `Quick
      (config_rejects "num_pes"
         ~make:(fun v -> Engine.Config.make ~num_pes:v ())
         ~update:Engine.Config.with_num_pes ~get:Engine.Config.num_pes);
    Alcotest.test_case "config rejects tasks_per_step < 1" `Quick
      (config_rejects "tasks_per_step"
         ~make:(fun v -> Engine.Config.make ~tasks_per_step:v ())
         ~update:Engine.Config.with_tasks_per_step ~get:Engine.Config.tasks_per_step);
    Alcotest.test_case "config rejects fault rates outside [0, 1] and drop = 1" `Quick
      test_config_rejects_fault_rates;
    Alcotest.test_case "config rejects latency < 1 and jitter outside [0, 1]" `Quick
      test_config_rejects_latency_and_jitter;
    Alcotest.test_case "executed tasks per PE" `Quick test_executed_per_pe;
    Alcotest.test_case "the phases partition the step" `Quick test_phases_partition;
    Alcotest.test_case "gc and restructure time on a cycle's last step" `Quick
      test_gc_exact_cycle_end;
    Alcotest.test_case "an idle step allocates nothing" `Quick test_idle_step_alloc_free;
    Alcotest.test_case "a stalled expansion retries without allocating" `Quick
      test_stall_retry_alloc;
    Alcotest.test_case "a reduction allocates only its sends and births" `Quick
      test_reduction_alloc_per_task;
    Alcotest.test_case "a forwarded request allocates nothing" `Quick
      test_forwarded_request_alloc_free;
    Alcotest.test_case "config rejects domains < 1" `Quick
      (config_rejects "domains"
         ~make:(fun v -> Engine.Config.make ~domains:v ())
         ~update:Engine.Config.with_domains ~get:Engine.Config.domains);
    Alcotest.test_case "config clamps domains to num_pes" `Quick test_config_clamps_domains;
    Alcotest.test_case "reductions on two shards: bytes at 1, 2 and 4 domains" `Quick
      test_two_shard_reductions;
    Alcotest.test_case "busy set: idle PEs hold nothing, at 1, 2 and 4 shards" `Quick
      test_busy_set_invariant;
    Alcotest.test_case "busy set: a crash re-homes onto an idle PE" `Quick
      test_busy_set_rehome_onto_idle;
    Alcotest.test_case "busy set: a down PE takes its parked marks" `Quick
      test_busy_set_down_pe_takes_marks;
    Alcotest.test_case "PE visits per step follow the work, not the PE count" `Quick
      test_visits_follow_work;
    Alcotest.test_case "O(1) live and headroom counts equal the folds" `Quick
      test_graph_counts_match_folds;
  ]

(* Delivery jitter: deterministic per seed; results invariant. *)
let jitter_suite =
  let run ~jitter ~seed =
    let config =
      Engine.Config.make ~jitter ~seed
        ~gc:(Engine.Concurrent { deadlock_every = 2; idle_gap = 10 })
        ()
    in
    let g, templates =
      Dgr_lang.Compile.load_string ~num_pes:4 (Dgr_lang.Prelude.fib 9)
    in
    let e = Engine.create ~config g templates in
    Engine.inject_root_demand e;
    let (_ : int) = Engine.run ~max_steps:200_000 e in
    e
  in
  [
    Alcotest.test_case "jittered runs still compute the result" `Quick (fun () ->
        List.iter
          (fun seed ->
            let e = run ~jitter:0.3 ~seed in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d" seed)
              true
              (Engine.result e = Some (Label.V_int 34));
            Alcotest.(check (list string)) "valid" [] (Validate.check (Engine.graph e)))
          [ 1; 2; 3; 4; 5 ]);
    Alcotest.test_case "jitter is deterministic per seed" `Quick (fun () ->
        let fingerprint e =
          ( Engine.now e,
            (Engine.metrics e).Metrics.reduction_executed,
            (Engine.metrics e).Metrics.remote_messages )
        in
        let a = fingerprint (run ~jitter:0.5 ~seed:7) in
        let b = fingerprint (run ~jitter:0.5 ~seed:7) in
        let c = fingerprint (run ~jitter:0.5 ~seed:8) in
        Alcotest.(check bool) "same seed, same run" true (a = b);
        Alcotest.(check bool) "different seed, different schedule" true (a <> c));
    Alcotest.test_case "deadlock detected under jitter" `Quick (fun () ->
        let config =
          Engine.Config.make ~jitter:0.4 ~seed:11
            ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 10 })
            ()
        in
        let g, templates = Dgr_lang.Compile.load_string Dgr_lang.Prelude.deadlock in
        let e = Engine.create ~config g templates in
        Engine.inject_root_demand e;
        let found t =
          match Engine.cycle t with
          | Some c -> not (Vid.Set.is_empty (Dgr_core.Cycle.deadlocked_ever c))
          | None -> false
        in
        let (_ : int) = Engine.run ~max_steps:50_000 ~stop:found e in
        Alcotest.(check bool) "found" true (found e));
  ]
