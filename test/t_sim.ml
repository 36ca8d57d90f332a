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

let test_pool_purge_and_reprioritize () =
  let g, a, b = mk_graph () in
  let pool = Pool.create Pool.Dynamic g in
  Pool.push pool (Task.request ~src:a b Demand.Eager);
  Pool.push pool (Task.request ~src:b a Demand.Eager);
  let n =
    Pool.purge pool (function
      | Task.Reduction (Task.Request { dst; _ }) -> dst = b
      | _ -> false)
  in
  Alcotest.(check int) "purged one" 1 n;
  Vertex.set_sched_prior (Graph.vertex g a) @@ 3;
  Alcotest.(check int) "reprioritize reports changes" 1 (Pool.reprioritize pool)

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
  Alcotest.(check int) "purge counts" 4 (Pool.purge pool (fun t -> mark_id t mod 2 = 1));
  Alcotest.(check (list int)) "purge keeps the survivors' order" [ 4; 6; 8; 10; 12 ] (ids ());
  take max_int;
  Alcotest.(check (list int)) "pop order" [ 0; 1; 2; 3; 4; 6; 8; 10; 12 ] (List.rev !popped);
  Alcotest.(check bool) "empty" true (Pool.is_empty pool);
  Alcotest.check_raises "a stamped mark is refused"
    (Invalid_argument "Pool.push: marking task on PE 0 carries lineage stamp 3") (fun () ->
      Pool.push ~stamp:3 pool (mark 0))

(* Random push / drain / purge against an all-priority-0 [Pqueue], the
   marking queue's previous representation. *)
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
      let m = 2 + Dgr_util.Rng.int rng 4 in
      let before = Dgr_util.Pqueue.length q in
      Dgr_util.Pqueue.filter_in_place (fun _ v -> v mod m <> 0) q;
      Alcotest.(check int) (label "purge")
        (before - Dgr_util.Pqueue.length q)
        (Pool.purge pool (fun t -> mark_id t mod m = 0))
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
      Network.deliver_serial net ~now:10 ~push:(fun pe _ task -> reds := (pe, task) :: !reds);
      Alcotest.(check bool) (name ^ ": reductions in delivery order") true
        (List.rev !reds = want_reds);
      for pe = 0 to 2 do
        let marks = ref [] in
        Network.take_marks net ~pe (fun task -> marks := task :: !marks);
        Alcotest.(check bool) (Printf.sprintf "%s: PE %d's marks in delivery order" name pe) true
          (List.rev !marks = marks_of pe);
        let again = ref 0 in
        Network.take_marks net ~pe (fun _ -> incr again);
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

let test_network_purge () =
  let net = Network.create () in
  Network.send net ~arrival:1 ~pe:0 (Task.request 7 Demand.Vital);
  Network.send net ~arrival:1 ~pe:0 (Task.request 8 Demand.Vital);
  let n =
    Network.purge net (function
      | Task.Reduction (Task.Request { dst; _ }) -> dst = 7
      | _ -> false)
  in
  Alcotest.(check int) "one purged" 1 n;
  Alcotest.(check int) "one left" 1 (Network.size net)

(* A purge that empties the most recently staged frame withdraws it;
   the next send on the same (src, dst, arrival) must open a fresh
   frame, not land in the withdrawn one and be lost. *)
let test_purge_emptied_frame_not_reused () =
  List.iter
    (fun (name, faults) ->
      let net = Network.create ?faults () in
      Network.send ~src:0 net ~arrival:2 ~pe:1 (Task.request 7 Demand.Vital);
      Alcotest.(check int) (name ^ ": purged") 1 (Network.purge net (fun _ -> true));
      Network.send ~src:0 net ~arrival:2 ~pe:1 (Task.request 8 Demand.Vital);
      let got = Helpers.deliver net ~now:2 in
      Alcotest.(check bool)
        (name ^ ": resent task delivered") true
        (got = [ (1, Task.request 8 Demand.Vital) ]);
      Alcotest.(check int) (name ^ ": nothing left in flight") 0 (Network.size net))
    [ ("ideal", None); ("lossy", Some (Faults.create Faults.none)) ]

let test_network_purge_records_destination () =
  (* The purge trace must name the PE each expunged task was bound for
     (not a blanket -1), one event per destination, ascending. *)
  let r = Dgr_obs.Recorder.create ~num_pes:4 () in
  let net = Network.create ~recorder:r () in
  Network.send net ~arrival:1 ~pe:2 (Task.request 7 Demand.Vital);
  Network.send net ~arrival:1 ~pe:0 (Task.request 8 Demand.Vital);
  Network.send net ~arrival:2 ~pe:2 (Task.request 9 Demand.Vital);
  Network.send net ~arrival:2 ~pe:1 (Task.request 10 Demand.Vital);
  let n =
    Network.purge net (function
      | Task.Reduction (Task.Request { dst; _ }) -> dst <> 10
      | _ -> false)
  in
  Alcotest.(check int) "three purged" 3 n;
  let purge_events =
    List.filter_map
      (function
        | { Dgr_obs.Event.kind = Dgr_obs.Event.Purge { pe; count }; _ } -> Some (pe, count)
        | _ -> None)
      (Dgr_obs.Recorder.events r)
  in
  Alcotest.(check (list (pair int int))) "per-PE purge events, real destinations"
    [ (0, 1); (2, 2) ] purge_events

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
  Network.deliver_serial net ~now:3 ~push:(fun _ _ task -> reds := task :: !reds);
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
  Network.take_marks net ~pe:1 (fun task -> marks := task :: !marks);
  Alcotest.(check bool) "marks taken in order" true
    (List.rev !marks = List.filter Task.is_marking sent)

(* Purges and crashes count tasks, marks and reductions alike, whatever
   their place in a frame; survivors keep their order. *)
let test_interleaved_purge_and_crash_counts () =
  List.iter
    (fun (name, faults) ->
      let net = Network.create ?faults () in
      let sent = interleaved () in
      List.iter (fun task -> Network.send ~src:0 net ~arrival:3 ~pe:1 task) sent;
      List.iter (fun task -> Network.send ~src:2 net ~arrival:4 ~pe:3 task) sent;
      let doomed task =
        match Task.exec_vertex task with Some v -> v mod 2 = 0 | None -> false
      in
      let n_doomed = List.length (List.filter doomed sent) in
      Alcotest.(check int) (name ^ ": purge count") (2 * n_doomed) (Network.purge net doomed);
      let survivors = List.filter (fun task -> not (doomed task)) sent in
      Alcotest.(check bool) (name ^ ": survivors keep their order") true
        (Network.in_flight net = survivors @ survivors);
      Alcotest.(check int) (name ^ ": crash loses the link's tasks") (List.length survivors)
        (Network.crash_pe net ~pe:3);
      Alcotest.(check bool) (name ^ ": the other link survives") true
        (Network.in_flight net = survivors))
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
    (List.length (Engine.locate_task e (fun _ -> true)))

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
      List.length (Engine.locate_task e Task.is_marking)
      - List.length (List.filter (fun (_, t) -> Task.is_marking t) (Engine.network_entries e))
    in
    pooled := Int.max !pooled in_pool;
    Alcotest.(check int)
      (Printf.sprintf "%s: step %d conserves marks" what step)
      (step + 1)
      (List.length (List.filter (fun (_, t) -> Task.is_marking t) (Engine.network_entries e))
      + in_pool
      + (Engine.metrics e).Metrics.marking_executed)
  done;
  Engine.dispose e;
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

(* Fault rates are probabilities, and a channel that drops everything
   delivers nothing: both are refused by [make] and [with_faults]. *)
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
    Engine.dispose e;
    (per_pe, m.Metrics.reduction_executed + m.Metrics.marking_executed)
  in
  let one, total = run 1 and two, _ = run 2 in
  Alcotest.(check int) "one count per PE" 4 (Array.length one);
  Alcotest.(check int) "per-PE counts sum to the executed total" total
    (Array.fold_left ( + ) 0 one);
  Alcotest.(check (array int)) "same at 1 and 2 domains" one two

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
      Engine.dispose e;
      let what s = Printf.sprintf "%s at %d domains: %s" name domains s in
      Alcotest.(check bool) (what "steps ran") true (p.Profile.steps > 0 && p.Profile.total_ns > 0.0);
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
    Alcotest.test_case "purged frame is not reused" `Quick test_purge_emptied_frame_not_reused;
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
