(* Unit tests for the basic and priority marking algorithms on static
   graphs (no concurrent mutation): the marked set must equal the oracle's
   reachable set under every dequeue order. *)
open Dgr_graph
open Dgr_core
open Dgr_util

let mark_basic ?order g =
  Sync_engine.mark ?order g Run.Basic ~seeds:[ Graph.root g ]

let oracle_reachable g =
  let snap = Snapshot.take g in
  Dgr_analysis.Reach.reachable_from snap [ Graph.root g ]

let test_chain () =
  let g = Graph.create () in
  let head = Builder.chain g 10 in
  Graph.set_root g head;
  let run = mark_basic g in
  Alcotest.(check bool) "finished" true run.Run.finished;
  Helpers.check_vid_set "all 10 marked" (oracle_reachable g) (Helpers.marked_set g Plane.MR);
  Helpers.check_quiescent g Plane.MR;
  Alcotest.(check int) "10 mark executions" 10 (Run.marks_total run)

let test_tree () =
  let g = Graph.create () in
  let root = Builder.binary_tree g ~depth:5 in
  Graph.set_root g root;
  let run = mark_basic g in
  Alcotest.(check bool) "finished" true run.Run.finished;
  Alcotest.(check int) "marked |tree| = 63" 63 (Vid.Set.cardinal (Helpers.marked_set g Plane.MR));
  Helpers.check_quiescent g Plane.MR

let test_self_loop () =
  let g = Graph.create () in
  let v = Graph.alloc g Label.If in
  Vertex.connect v (Vertex.id v);
  Graph.set_root g (Vertex.id v);
  let run = mark_basic g in
  Alcotest.(check bool) "finished" true run.Run.finished;
  Alcotest.(check bool) "self-loop marked" true (Vertex.marked v Plane.MR);
  Helpers.check_quiescent g Plane.MR

let test_cycle_ring () =
  let g = Graph.create () in
  let member = Builder.cycle g 7 in
  Graph.set_root g member;
  let run = mark_basic g in
  Alcotest.(check bool) "finished" true run.Run.finished;
  Alcotest.(check int) "ring fully marked" 7 (Vid.Set.cardinal (Helpers.marked_set g Plane.MR));
  Helpers.check_quiescent g Plane.MR

let test_garbage_not_marked () =
  let g = Graph.create () in
  let live = Builder.chain g 5 in
  Graph.set_root g live;
  let garbage = Builder.cycle g 4 in
  let (_ : Run.t) = mark_basic g in
  Alcotest.(check bool) "garbage unmarked" true
    (Vertex.unmarked (Graph.vertex g garbage) Plane.MR)

let test_shared_subexpression () =
  let g = Graph.create () in
  let shared = Builder.chain g 3 in
  let l = Builder.add g Label.Ind [ shared ] in
  let r = Builder.add g Label.Ind [ shared ] in
  let root = Builder.add_root g (Label.Prim Label.Add) [ l; r ] in
  ignore root;
  let run = mark_basic g in
  Alcotest.(check bool) "finished" true run.Run.finished;
  Alcotest.(check int) "6 vertices marked once" 6
    (Vid.Set.cardinal (Helpers.marked_set g Plane.MR));
  Helpers.check_quiescent g Plane.MR

let test_orders_agree_random_graphs () =
  let rng = Rng.create 2024 in
  for seed = 0 to 19 do
    let spec =
      {
        Builder.live = 30 + Rng.int rng 100;
        garbage = Rng.int rng 40;
        free_pool = Rng.int rng 10;
        avg_degree = 1.5 +. Rng.float rng 2.0;
        cycle_bias = Rng.float rng 0.5;
      }
    in
    List.iter
      (fun (name, order) ->
        let g = Builder.random (Rng.create seed) spec in
        let expected = oracle_reachable g in
        let run = mark_basic ~order g in
        Alcotest.(check bool) (Printf.sprintf "finished (%s, seed %d)" name seed) true
          run.Run.finished;
        Helpers.check_vid_set
          (Printf.sprintf "marked = R (%s, seed %d)" name seed)
          expected
          (Helpers.marked_set g Plane.MR);
        Helpers.check_quiescent g Plane.MR)
      (Helpers.orders (Rng.split rng))
  done

let test_empty_seed_list_finishes () =
  let g = Graph.create () in
  let (_ : Vid.t) = Builder.add_root g Label.If [] in
  let run = Sync_engine.mark g Run.Tasks ~seeds:[] in
  Alcotest.(check bool) "trivially finished" true run.Run.finished

(* Priority marking: a diamond where one path is vital and the other
   eager; the paper's min-over-path/max-over-paths rule decides. *)
let test_priority_diamond () =
  let g = Graph.create () in
  let d = Builder.add g (Label.Int 1) [] in
  let l = Builder.add g Label.Ind [ d ] in
  let r = Builder.add g Label.Ind [ d ] in
  let root = Builder.add_root g Label.If [ l; r ] in
  let vroot = Graph.vertex g root in
  Vertex.request_arg vroot l Demand.Vital;
  Vertex.request_arg vroot r Demand.Eager;
  Vertex.request_arg (Graph.vertex g l) d Demand.Vital;
  Vertex.request_arg (Graph.vertex g r) d Demand.Vital;
  let run = Sync_engine.mark g Run.Priority ~seeds:[ root ] in
  Alcotest.(check bool) "finished" true run.Run.finished;
  let prior v = Vertex.prior (Graph.vertex g v) Plane.MR in
  Alcotest.(check int) "root vital" 3 (prior root);
  Alcotest.(check int) "left vital" 3 (prior l);
  Alcotest.(check int) "right eager" 2 (prior r);
  Alcotest.(check int) "shared d takes the max-min = vital" 3 (prior d);
  Helpers.check_quiescent g Plane.MR

let test_priority_eager_subtree_requests_vitally () =
  (* §3.2: an eagerly-requested vertex may vitally request w; globally w
     is still only eager. *)
  let g = Graph.create () in
  let w = Builder.add g (Label.Int 7) [] in
  let e = Builder.add g (Label.Prim Label.Neg) [ w ] in
  let root = Builder.add_root g Label.If [ e ] in
  Vertex.request_arg (Graph.vertex g root) e Demand.Eager;
  Vertex.request_arg (Graph.vertex g e) w Demand.Vital;
  let (_ : Run.t) = Sync_engine.mark g Run.Priority ~seeds:[ root ] in
  let prior v = Vertex.prior (Graph.vertex g v) Plane.MR in
  Alcotest.(check int) "e eager" 2 (prior e);
  Alcotest.(check int) "w capped at eager" 2 (prior w)

let test_priority_unrequested_is_reserve () =
  let g = Graph.create () in
  let x = Builder.add g (Label.Int 3) [] in
  let root = Builder.add_root g Label.If [ x ] in
  ignore root;
  let (_ : Run.t) = Sync_engine.mark g Run.Priority ~seeds:[ Graph.root g ] in
  Alcotest.(check int) "unrequested arg priority 1" 1
    (Vertex.prior (Graph.vertex g x) Plane.MR)

let test_priority_matches_oracle_random () =
  let rng = Rng.create 99 in
  for seed = 0 to 19 do
    let spec =
      {
        Builder.live = 20 + Rng.int rng 80;
        garbage = Rng.int rng 30;
        free_pool = 5;
        avg_degree = 1.5 +. Rng.float rng 1.5;
        cycle_bias = Rng.float rng 0.4;
      }
    in
    let g = Builder.random_with_requests (Rng.create (seed * 77)) spec in
    let snap = Snapshot.take g in
    let reach = Dgr_analysis.Reach.compute snap ~tasks:[] in
    List.iter
      (fun (name, order) ->
        Graph.reset_plane g Plane.MR;
        let run = Sync_engine.mark ~order g Run.Priority ~seeds:[ Graph.root g ] in
        Alcotest.(check bool) (Printf.sprintf "finished %s/%d" name seed) true
          run.Run.finished;
        Helpers.check_vid_set
          (Printf.sprintf "R_v oracle vs marked (%s, seed %d)" name seed)
          reach.Dgr_analysis.Reach.r_v
          (Helpers.marked_with_prior g 3);
        Helpers.check_vid_set
          (Printf.sprintf "R_e oracle vs marked (%s, seed %d)" name seed)
          reach.Dgr_analysis.Reach.r_e
          (Helpers.marked_with_prior g 2);
        Helpers.check_vid_set
          (Printf.sprintf "R_r oracle vs marked (%s, seed %d)" name seed)
          reach.Dgr_analysis.Reach.r_r
          (Helpers.marked_with_prior g 1))
      (Helpers.orders (Rng.split rng))
  done

(* M_T marking: trace requested ∪ (args − req-args) from task endpoints. *)
let test_mark_tasks_traces_requested () =
  let g = Graph.create () in
  (* y requested by x; x has an unrequested arg z; task sits at y. *)
  let z = Builder.add g (Label.Int 1) [] in
  let y = Builder.add g (Label.Int 2) [] in
  let x = Builder.add_root g (Label.Prim Label.Add) [ y; z ] in
  Vertex.request_arg (Graph.vertex g x) y Demand.Vital;
  Vertex.add_requester (Graph.vertex g y) (Some x) ~demand:Demand.Vital ~key:y;
  let run = Sync_engine.mark g Run.Tasks ~seeds:[ y ] in
  Alcotest.(check bool) "finished" true run.Run.finished;
  let marked = Helpers.marked_set g Plane.MT in
  Alcotest.(check bool) "y marked (task dest)" true (Vid.Set.mem y marked);
  Alcotest.(check bool) "x marked (via requested)" true (Vid.Set.mem x marked);
  Alcotest.(check bool) "z marked (unrequested arg of x)" true (Vid.Set.mem z marked)

let test_mark_tasks_skips_req_args () =
  (* x vitally requested y: the edge x→y is NOT in ↦, so starting from a
     task at x must not mark y (this is what makes deadlock detectable). *)
  let g = Graph.create () in
  let y = Builder.add g Label.Bottom [] in
  let x = Builder.add_root g (Label.Prim Label.Add) [ y ] in
  Vertex.request_arg (Graph.vertex g x) y Demand.Vital;
  let run = Sync_engine.mark g Run.Tasks ~seeds:[ x ] in
  Alcotest.(check bool) "finished" true run.Run.finished;
  Alcotest.(check bool) "y not task-reachable" true
    (Vertex.unmarked (Graph.vertex g y) Plane.MT);
  Alcotest.(check bool) "x marked" true (Vertex.marked (Graph.vertex g x) Plane.MT)

let test_planes_independent () =
  let g = Graph.create () in
  let head = Builder.chain g 4 in
  Graph.set_root g head;
  let (_ : Run.t) = Sync_engine.mark g Run.Basic ~seeds:[ head ] in
  Alcotest.(check bool) "MR marked" true (Vertex.marked (Graph.vertex g head) Plane.MR);
  Alcotest.(check bool) "MT untouched" true (Vertex.unmarked (Graph.vertex g head) Plane.MT)

(* The dequeue schedule itself, pinned: M_T from every requested vertex,
   then M_R from the root, on one engine. The tasks executed and every
   live vertex's (mt-par, prior, marked) on both planes differ per order,
   so a change to how any order picks its next mark shows here even when
   the marked sets agree. *)
let schedule_fingerprint order seed =
  let spec =
    { Builder.live = 60; garbage = 20; free_pool = 10; avg_degree = 2.0; cycle_bias = 0.2 }
  in
  let g = Builder.random_with_requests (Rng.create seed) spec in
  let seeds =
    List.rev
      (Graph.fold_live
         (fun acc v -> if Vertex.requested v = [] then acc else Vertex.id v :: acc)
         [] g)
  in
  let e = Sync_engine.create ~order g in
  let (_ : Run.t) = Sync_engine.start e Run.Tasks ~seeds in
  let n_mt = Sync_engine.drain e in
  let (_ : Run.t) = Sync_engine.start e Run.Priority ~seeds:[ Graph.root g ] in
  let n_mr = Sync_engine.drain e in
  let b = Buffer.create 4096 in
  let plane v p =
    Printf.bprintf b "%d,%d,%b;" (Vertex.par_vid v p) (Vertex.prior v p) (Vertex.marked v p)
  in
  Graph.iter_live
    (fun v ->
      Printf.bprintf b "%d:" (Vertex.id v);
      plane v Plane.MT;
      plane v Plane.MR)
    g;
  Printf.sprintf "%d+%d %s" n_mt n_mr (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_schedules_pinned () =
  List.iter
    (fun (seed, fifo, lifo, random) ->
      List.iter
        (fun (name, order, expected) ->
          Alcotest.(check string)
            (Printf.sprintf "%s schedule, seed %d" name seed)
            expected (schedule_fingerprint order seed))
        [
          ("fifo", Sync_engine.Fifo, fifo);
          ("lifo", Sync_engine.Lifo, lifo);
          ("random", Sync_engine.Random (Rng.create (seed + 1)), random);
        ])
    [
      ( 3,
        "338+264 38a321555028b9617df1f85526787660",
        "338+316 8bb47e0098a0d22d87d4eda2acd62003",
        "338+262 184822fb9cbe4523803f9fe474ce4daa" );
      ( 17,
        "364+254 666bb0a2f1669a8e3a8cce1b6a0d5046",
        "364+256 6551586f26f131d20fec008527714ef0",
        "364+256 c39aa5ac1b12db501c95eaef36f64362" );
      ( 42,
        "352+240 2a68a78f93a696e01045a01955c547c5",
        "352+240 5ac94d3bd178780dc084f211b80a5cd8",
        "352+240 287f411df8b2121692a2d9e95fad800a" );
    ]

(* The mark path allocates nothing per mark: no per-child closure, no
   boxed meta, no view. Every tree variant and every flood, on a few
   thousand vertices, stays under 0.1 minor words per executed task
   once the queue has grown (the run and its seed list are a constant). *)
let test_mark_path_alloc () =
  let spec =
    { Builder.live = 3000; garbage = 600; free_pool = 0; avg_degree = 2.5; cycle_bias = 0.15 }
  in
  let g = Builder.random (Rng.create 5) spec in
  let root = Graph.root g in
  let e = Sync_engine.create g in
  let wave variant ~flood =
    Graph.reset_plane g (Run.plane_of_variant variant);
    (if flood then ignore (Sync_engine.start_flood e variant ~seeds:[ root ] : Flood.t)
     else ignore (Sync_engine.start e variant ~seeds:[ root ] : Run.t));
    Sync_engine.drain e
  in
  List.iter
    (fun (name, variant, flood) ->
      let (_ : int) = wave variant ~flood in
      let w0 = Gc.minor_words () in
      let n = wave variant ~flood in
      let per_mark = (Gc.minor_words () -. w0) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f words per mark over %d marks" name per_mark n)
        true
        (n > 3000 && per_mark <= 0.1))
    [
      ("basic", Run.Basic, false);
      ("priority", Run.Priority, false);
      ("tasks", Run.Tasks, false);
      ("flood basic", Run.Basic, true);
      ("flood priority", Run.Priority, true);
      ("flood tasks", Run.Tasks, true);
    ]

let suite =
  [
    Alcotest.test_case "dequeue schedules pinned" `Quick test_schedules_pinned;
    Alcotest.test_case "mark path allocates nothing per mark" `Quick test_mark_path_alloc;
    Alcotest.test_case "chain" `Quick test_chain;
    Alcotest.test_case "binary tree" `Quick test_tree;
    Alcotest.test_case "self loop" `Quick test_self_loop;
    Alcotest.test_case "ring cycle" `Quick test_cycle_ring;
    Alcotest.test_case "garbage not marked" `Quick test_garbage_not_marked;
    Alcotest.test_case "shared subexpression" `Quick test_shared_subexpression;
    Alcotest.test_case "orders agree on random graphs" `Quick test_orders_agree_random_graphs;
    Alcotest.test_case "empty seeds finish trivially" `Quick test_empty_seed_list_finishes;
    Alcotest.test_case "priority diamond (max-min)" `Quick test_priority_diamond;
    Alcotest.test_case "eager subtree capped" `Quick test_priority_eager_subtree_requests_vitally;
    Alcotest.test_case "unrequested arg is reserve" `Quick test_priority_unrequested_is_reserve;
    Alcotest.test_case "priority marking matches oracle" `Quick
      test_priority_matches_oracle_random;
    Alcotest.test_case "M_T traces requested and unrequested args" `Quick
      test_mark_tasks_traces_requested;
    Alcotest.test_case "M_T skips req-args edges" `Quick test_mark_tasks_skips_req_args;
    Alcotest.test_case "MR and MT planes independent" `Quick test_planes_independent;
  ]

(* Negative paths: misrouted tasks and corrupted states must be caught
   loudly, not absorbed. *)
let test_wrong_plane_rejected () =
  let g = Graph.create () in
  let v = Builder.add_root g (Label.Int 1) [] in
  let run = Run.create g Run.Priority in
  Run.seed_added run;
  (match
     Helpers.on_view (Marker.execute run ~pe:0 ~emit:Helpers.no_emit)
       (Dgr_task.Task.Mark3 { v; par = Plane.Rootpar; ep = run.Run.wave })
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mark3 accepted by an M_R run");
  let run_t = Run.create g Run.Tasks in
  Run.seed_added run_t;
  match
    Helpers.on_view (Marker.execute run_t ~pe:0 ~emit:Helpers.no_emit)
      (Dgr_task.Task.Mark2 { v; par = Plane.Rootpar; prior = 3; ep = run_t.Run.wave })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mark2 accepted by an M_T run"

let test_return_without_credit_rejected () =
  let g = Graph.create () in
  let v = Builder.add_root g (Label.Int 1) [] in
  let run = Run.create g Run.Basic in
  match
    Helpers.on_view (Marker.execute run ~pe:0 ~emit:Helpers.no_emit)
      (Dgr_task.Task.Return { plane = Plane.MR; par = Plane.Parent v; ep = run.Run.wave })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "return accepted with mt-cnt = 0"

let test_flood_rejects_returns () =
  let g = Graph.create () in
  let v = Builder.add_root g (Label.Int 1) [] in
  ignore v;
  let fl = Dgr_core.Flood.create g Run.Basic in
  match
    Helpers.on_view (Dgr_core.Flood.execute fl ~pe:0 ~emit:Helpers.no_emit)
      (Dgr_task.Task.Return { plane = Plane.MR; par = Plane.Rootpar; ep = fl.Dgr_core.Flood.wave })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flood accepted a return task"

let test_invariant_checker_catches_corruption () =
  let g = Graph.create () in
  let head = Builder.chain g 3 in
  Graph.set_root g head;
  let engine = Sync_engine.create g in
  let run = Sync_engine.start engine Run.Basic ~seeds:[ head ] in
  let (_ : bool) = Sync_engine.step engine in
  (* corrupt the count behind the algorithm's back *)
  for _ = 1 to 5 do
    Vertex.charge (Graph.vertex g head) Plane.MR
  done;
  Alcotest.(check bool) "invariant 3 violation reported" true
    (Invariants.check run ~pending:(Sync_engine.pending engine) <> [])

let test_drain_guard () =
  (* an adversary that re-seeds forever must hit the divergence guard *)
  let g = Graph.create () in
  let head = Builder.chain g 2 in
  Graph.set_root g head;
  let engine = Sync_engine.create g in
  let run = Sync_engine.start engine Run.Basic ~seeds:[ head ] in
  ignore run;
  let mut = Sync_engine.mutator engine in
  let feeder _ =
    (* each injected seed produces at least a return task, so the queue
       can never drain while the feeder keeps going *)
    Run.seed_added run;
    mut.Mutator.spawn head (-1) (Marker.seed_meta run)
  in
  match Sync_engine.drain ~interleave:feeder ~max_steps:500 engine with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the max_steps guard to fire"

let negative_suite =
  [
    Alcotest.test_case "wrong plane rejected" `Quick test_wrong_plane_rejected;
    Alcotest.test_case "uncredited return rejected" `Quick test_return_without_credit_rejected;
    Alcotest.test_case "flood rejects returns" `Quick test_flood_rejects_returns;
    Alcotest.test_case "invariant checker catches corruption" `Quick
      test_invariant_checker_catches_corruption;
    Alcotest.test_case "drain divergence guard" `Quick test_drain_guard;
  ]
