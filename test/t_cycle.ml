(* The full mark/restructure cycle driven through the simulator on
   hand-built graphs (no reduction program): collection, deadlock
   reports, priority persistence, task purging. *)
open Dgr_graph
open Dgr_sim
open Dgr_core

let empty_registry = Dgr_reduction.Template.create_registry ()

let engine_for ?(deadlock_every = 1) ?(idle_gap = 5) g =
  let config =
    Engine.Config.make ~num_pes:(Graph.num_pes g)
      ~gc:(Engine.Concurrent { deadlock_every; idle_gap })
      ~heap_size:None ()
  in
  Engine.create ~config g empty_registry

let run_cycles e n =
  let target t =
    match Engine.cycle t with
    | Some c -> Cycle.cycles_completed c >= n
    | None -> true
  in
  let (_ : int) = Engine.run ~max_steps:100_000 ~stop:target e in
  Option.get (Engine.cycle e)

let test_collects_unreachable () =
  let g = Graph.create ~num_pes:2 () in
  let live = Builder.chain g 5 in
  Graph.set_root g live;
  let ring = Builder.cycle g 6 in
  ignore ring;
  let before = Graph.live_count g in
  let e = engine_for g in
  let c = run_cycles e 1 in
  Alcotest.(check int) "garbage collected" (before - 5) (Cycle.total_garbage_collected c);
  Alcotest.(check int) "free list refilled" (before - 5) (Graph.free_count g);
  Alcotest.(check (list string)) "valid" [] (Validate.check g)

let test_live_never_collected_across_cycles () =
  let g = Graph.create ~num_pes:4 () in
  let root = Builder.binary_tree g ~depth:4 in
  Graph.set_root g root;
  let e = engine_for g in
  let (_ : Cycle.t) = run_cycles e 5 in
  Alcotest.(check int) "all live survive 5 cycles" 31 (Graph.live_count g)

let test_deadlock_reported_only_with_mt () =
  let build () =
    let s = Dgr_harness.Scenarios.fig_3_1 () in
    (s.Dgr_harness.Scenarios.graph, s.Dgr_harness.Scenarios.x)
  in
  (* deadlock_every = 0: M_T never runs, nothing is ever reported *)
  let g, _x = build () in
  Vertex.add_requester (Graph.vertex g (Graph.root g)) None ~demand:Demand.Vital
    ~key:(Graph.root g);
  Vertex.request_arg
    (Graph.vertex g (Graph.root g))
    (List.hd (Graph.children g (Graph.root g)))
    Demand.Vital;
  let e = engine_for ~deadlock_every:0 g in
  let c = run_cycles e 3 in
  Alcotest.(check bool) "no M_T, no deadlock report" true
    (Vid.Set.is_empty (Cycle.deadlocked_ever c));
  (* deadlock_every = 1: found in the first cycle *)
  let g, x = build () in
  Vertex.add_requester (Graph.vertex g (Graph.root g)) None ~demand:Demand.Vital
    ~key:(Graph.root g);
  Vertex.request_arg
    (Graph.vertex g (Graph.root g))
    (List.hd (Graph.children g (Graph.root g)))
    Demand.Vital;
  (* x vitally requests itself and the constant *)
  let vx = Graph.vertex g x in
  List.iter (fun c -> Vertex.request_arg vx c Demand.Vital) (Vertex.args vx);
  Vertex.add_requester vx (Some x) ~demand:Demand.Vital ~key:x;
  let e = engine_for ~deadlock_every:1 g in
  let c = run_cycles e 2 in
  Alcotest.(check bool) "x reported deadlocked" true
    (Vid.Set.mem x (Cycle.deadlocked_ever c))

let test_sched_prior_persists () =
  let g = Graph.create () in
  let leaf = Builder.add g (Label.Int 1) [] in
  let root = Builder.add_root g Label.If [ leaf ] in
  Vertex.request_arg (Graph.vertex g root) leaf Demand.Eager;
  let e = engine_for g in
  let (_ : Cycle.t) = run_cycles e 1 in
  Alcotest.(check int) "root classified vital" 3 (Vertex.sched_prior (Graph.vertex g root));
  Alcotest.(check int) "leaf classified eager" 2 (Vertex.sched_prior (Graph.vertex g leaf));
  Alcotest.(check bool) "planes reset between cycles" true
    (Vertex.unmarked (Graph.vertex g root) Plane.MR
    || Vertex.transient (Graph.vertex g root) Plane.MR
    || Vertex.marked (Graph.vertex g root) Plane.MR)

let test_irrelevant_tasks_purged () =
  let g = Graph.create ~num_pes:1 () in
  let live = Builder.chain g 3 in
  Graph.set_root g live;
  (* a ring of indirections: a request injected into it forwards forever —
     §3.2's non-terminating irrelevant workload in miniature *)
  let junk = Builder.cycle g 3 in
  let e = engine_for g in
  Engine.inject e (Dgr_task.Task.request junk Demand.Eager);
  let (_ : Cycle.t) = run_cycles e 3 in
  Alcotest.(check bool) "circulating irrelevant task dropped at its pop" true
    ((Engine.metrics e).Metrics.tasks_purged >= 1);
  Alcotest.(check bool) "junk ring collected" true (Vertex.free (Graph.vertex g junk));
  (* and no live reduction task is left: the stale one never runs again *)
  let still_pending =
    List.exists Dgr_task.Task.is_reduction (Engine.pending_tasks e)
  in
  Alcotest.(check bool) "no reduction tasks survive" false still_pending

let test_start_cycle_twice_rejected () =
  let g = Graph.create () in
  let (_ : Vid.t) = Builder.add_root g (Label.Int 1) [] in
  let mut = Mutator.create ~spawn:(fun _ _ _ -> ()) g in
  let env =
    {
      Cycle.spawn_mark = (fun _ _ _ -> ());
      pes = 1;
      iter_pe_endpoints = (fun _ _ -> ());
      reprioritize = (fun () -> 0);
      each_home = (fun f -> f 0);
      now = (fun () -> 0);
    }
  in
  let c = Cycle.create g mut env in
  Cycle.start_cycle c;
  Alcotest.check_raises "double start"
    (Invalid_argument "Cycle.start_cycle: cycle already in progress") (fun () ->
      Cycle.start_cycle c)

let test_mt_before_mr_order () =
  (* With deadlock detection on, the first phase must be Mark_tasks. *)
  let g = Graph.create () in
  let (_ : Vid.t) = Builder.add_root g (Label.Int 1) [] in
  let mut = Mutator.create ~spawn:(fun _ _ _ -> ()) g in
  let spawned = ref [] in
  let env =
    {
      Cycle.spawn_mark =
        (fun v par meta -> spawned := Dgr_task.Task.mark_of_lanes v par meta :: !spawned);
      pes = 1;
      iter_pe_endpoints =
        (fun _pe f ->
          List.iter f
            (Dgr_task.Task.reduction_endpoints
               (Dgr_task.Task.Request
                  { src = None; dst = Graph.root g; demand = Demand.Vital; key = Graph.root g })));
      reprioritize = (fun () -> 0);
      each_home = (fun f -> f 0);
      now = (fun () -> 0);
    }
  in
  let c = Cycle.create ~deadlock_every:1 g mut env in
  Cycle.start_cycle c;
  Alcotest.(check bool) "starts in Mark_tasks" true (Cycle.phase c = Cycle.Mark_tasks);
  (match !spawned with
  | [ Dgr_task.Task.Mark3 _ ] -> ()
  | _ -> Alcotest.fail "expected one mark3 seed");
  Alcotest.(check bool) "M_T run exposed" true (Cycle.run_for_plane c Plane.MT <> None);
  Alcotest.(check bool) "no M_R run yet" true (Cycle.run_for_plane c Plane.MR = None)

let test_cycle_with_empty_graph () =
  let g = Graph.create () in
  Graph.preallocate g 4;
  let e = engine_for g in
  let c = run_cycles e 1 in
  Alcotest.(check int) "nothing to collect" 0 (Cycle.total_garbage_collected c)

(* --- GAR' read from the plane columns ------------------------------- *)

(* A reduction task whose endpoints are drawn from [-1, n + 3): live,
   garbage, free and out-of-range vids, and the controller. *)
let random_task rng n =
  let v () = Dgr_util.Rng.int rng (n + 4) - 1 in
  let who () = if Dgr_util.Rng.int rng 4 = 0 then None else Some (v ()) in
  let open Dgr_task.Task in
  match Dgr_util.Rng.int rng 4 with
  | 0 -> Reduction (Request { src = who (); dst = v (); demand = Demand.Vital; key = v () })
  | 1 ->
    let value = Label.V_int 0 in
    Reduction (Respond { src = v (); dst = who (); value; key = v (); demand = Demand.Eager })
  | 2 -> Reduction (Cancel { src = v (); dst = v () })
  | _ -> Marking (Mark1 { v = v (); par = Plane.Rootpar; ep = 0 })

let endpoints = function
  | Dgr_task.Task.Reduction r -> Dgr_task.Task.reduction_endpoints r
  | Dgr_task.Task.Marking _ -> []

(* Over random graphs with requester rows — dense ones, and partitioned
   ones where a crash re-homed a dead PE's live vertices onto survivors
   — one restructure releases exactly the union of the per-home
   [collect_home] verdicts, leaves stale exactly the tasks (recorded
   before it) with an endpoint in that union, and leaves no surviving
   requester row naming it. *)
let test_gar_oracle () =
  let pes = 4 in
  for seed = 1 to 12 do
    let crash = seed mod 2 = 0 in
    let rng = Dgr_util.Rng.create seed in
    let spec =
      {
        Builder.live = 30 + Dgr_util.Rng.int rng 60;
        garbage = 5 + Dgr_util.Rng.int rng 40;
        free_pool = 8;
        avg_degree = 2.0;
        cycle_bias = 0.2;
      }
    in
    let g = Builder.random_with_requests ~num_pes:pes rng spec in
    if crash then begin
      let config = Engine.Config.make ~num_pes:pes ~gc:Engine.No_gc ~heap_size:None () in
      let e = Engine.create ~config g empty_registry in
      Engine.inject_crash e ~pe:(seed mod pes) ~down:5
    end;
    ignore (Sync_engine.mark g Run.Priority ~seeds:[ Graph.root g ]);
    let verdict =
      List.concat_map
        (fun pe -> fst (Restructure.collect_home g ~deadlock_checked:false ~pe))
        (List.init pes Fun.id)
    in
    let gar = Vid.Set.of_list verdict in
    let what s = Printf.sprintf "seed %d%s: %s" seed (if crash then " (crashed)" else "") s in
    Alcotest.(check bool) (what "a nonempty verdict") true (not (Vid.Set.is_empty gar));
    let free_before = Vid.Set.of_list (Graph.free_list g) in
    let tasks = List.init 300 (fun _ -> random_task rng (Graph.vertex_count g)) in
    let recorded =
      List.map
        (fun t ->
          match t with
          | Dgr_task.Task.Reduction _ -> (Graph.releases g, t)
          | Dgr_task.Task.Marking _ -> (Dgr_task.Task.no_gen, t))
        tasks
    in
    let report =
      Restructure.run ~graph:g ~deadlock_checked:false ~reprioritize:(fun () -> 0) ()
    in
    let stale =
      List.filter_map
        (fun (gen, t) ->
          match t with
          | Dgr_task.Task.Reduction r when Dgr_task.Task.stale g gen r -> Some t
          | Dgr_task.Task.Reduction _ | Dgr_task.Task.Marking _ -> None)
        recorded
    in
    let released = Vid.Set.diff (Vid.Set.of_list (Graph.free_list g)) free_before in
    Helpers.check_vid_set (what "released = union of verdicts") gar released;
    Alcotest.(check int) (what "garbage count") (Vid.Set.cardinal gar) report.Restructure.garbage;
    let expected =
      List.filter (fun t -> List.exists (fun v -> Vid.Set.mem v gar) (endpoints t)) tasks
    in
    Alcotest.(check (list string))
      (what "stale = tasks touching the union")
      (List.map Dgr_task.Task.to_string expected)
      (List.map Dgr_task.Task.to_string stale);
    Graph.iter_live
      (fun v ->
        List.iter
          (fun (e : Vertex.request_entry) ->
            match e.Vertex.who with
            | Some w when Vid.Set.mem w gar ->
              Alcotest.failf "%s"
                (what (Printf.sprintf "v%d still lists released v%d" (Vertex.id v) w))
            | Some _ | None -> ())
          (Vertex.requested v))
      g
  done

(* --- irrelevant tasks die at their pop ------------------------------- *)

(* A root chain plus one garbage vertex, on a machine that has sent a
   request into the garbage: the request is still in flight when
   restructure (an M_R wave from the root, then the phase itself)
   releases the garbage, and the slot is re-born at once — the next
   allocation on its home pops it. Returns the engine and the re-born
   vertex, which has the garbage's vid. *)
let released_and_reborn ~config =
  let g = Graph.create ~num_pes:2 () in
  Graph.set_root g (Builder.chain g 3);
  let junk = Builder.add g (Label.Int 1) [] in
  let e = Engine.create ~config g empty_registry in
  Engine.inject e (Dgr_task.Task.request junk Demand.Vital);
  Engine.step e;
  ignore (Sync_engine.mark g Run.Priority ~seeds:[ Graph.root g ]);
  let report = Restructure.run ~graph:g ~deadlock_checked:false ~reprioritize:(fun () -> 0) () in
  Alcotest.(check int) "the garbage vertex released" 1 report.Restructure.garbage;
  let reborn = Graph.alloc ~from:(Graph.home_of_vid g junk) g (Label.Int 2) in
  Alcotest.(check int) "its slot re-born" junk (Vertex.id reborn);
  (e, reborn)

(* Property 6 at a pool's pop: a request waits in its PE's pool (one
   task per step, and a vital request ahead of it) when restructure
   releases its destination, and the slot is re-born before it pops.
   The request never executes — not on the new occupant either — and is
   counted as one purge, at every domain count. *)
let test_request_into_released_slot_never_runs () =
  List.iter
    (fun domains ->
      let g = Graph.create ~num_pes:4 () in
      let live = Vertex.id (Graph.alloc ~pe:1 g (Label.Int 5)) in
      Graph.set_root g live;
      let junk = Vertex.id (Graph.alloc ~pe:1 g (Label.Int 1)) in
      let config =
        Engine.Config.make ~num_pes:4 ~domains ~tasks_per_step:1 ~gc:Engine.No_gc
          ~heap_size:None ()
      in
      let e = Engine.create ~config g empty_registry in
      Engine.inject e (Dgr_task.Task.request live Demand.Vital);
      Engine.inject e (Dgr_task.Task.request junk Demand.Eager);
      while (Engine.metrics e).Metrics.reduction_executed = 0 do
        Engine.step e
      done;
      let what s = Printf.sprintf "%d domains: %s" domains s in
      Alcotest.(check int) (what "the request waits in the pool") 1
        (List.length (List.filter Dgr_task.Task.is_reduction (Engine.pending_tasks e)));
      ignore (Sync_engine.mark g Run.Priority ~seeds:[ live ]);
      let (_ : Restructure.report) =
        Restructure.run ~graph:g ~deadlock_checked:false ~reprioritize:(fun () -> 0) ()
      in
      let reborn = Graph.alloc ~from:(Graph.home_of_vid g junk) g (Label.Int 2) in
      Alcotest.(check int) (what "its slot re-born") junk (Vertex.id reborn);
      let (_ : int) = Engine.run ~max_steps:100 ~stop:(fun _ -> false) e in
      let m = Engine.metrics e in
      Alcotest.(check int) (what "only the vital request executed") 1 m.Metrics.reduction_executed;
      Alcotest.(check int) (what "one purge") 1 m.Metrics.tasks_purged;
      Alcotest.(check int) (what "the new occupant was not asked") 0
        (Vertex.requested_count reborn))
    [ 1; 2; 4 ]

(* M_T seeds taskroot from the pending tasks, and a stale one is not
   among them: the in-flight request into the released vertex must not
   seed — and so mark T — the slot's new occupant. *)
let test_stale_task_does_not_seed () =
  let config =
    Engine.Config.make ~num_pes:2 ~latency:8
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 1_000_000 })
      ~heap_size:None ()
  in
  let e, reborn = released_and_reborn ~config in
  let c = Option.get (Engine.cycle e) in
  Cycle.start_cycle c;
  Alcotest.(check bool) "M_T is seeding" true (Cycle.phase c = Cycle.Mark_tasks);
  Alcotest.(check bool) "the new occupant is no seed" false
    (Vertex.seed_stamp reborn = Graph.wave (Engine.graph e));
  let (_ : int) = Engine.run ~max_steps:1_000 ~stop:(fun _ -> Cycle.phase c <> Cycle.Mark_tasks) e in
  Alcotest.(check bool) "M_T finished" true (Cycle.phase c = Cycle.Mark_root);
  Alcotest.(check bool) "and never marked it" false (Vertex.marked reborn Plane.MT)

(* Minor words of the step that finishes the first cycle, on a machine
   holding [live] reachable vertices and a fixed garbage load. *)
let finishing_step_words ~live =
  let spec = { Builder.live; garbage = 400; free_pool = 0; avg_degree = 2.0; cycle_bias = 0.1 } in
  let g = Builder.random ~num_pes:8 (Dgr_util.Rng.create 3) spec in
  let e = engine_for ~deadlock_every:0 g in
  let c = Option.get (Engine.cycle e) in
  let words = ref nan in
  while Cycle.cycles_completed c = 0 do
    let w0 = Gc.minor_words () in
    Engine.step e;
    words := Gc.minor_words () -. w0
  done;
  Alcotest.(check int) "garbage collected" 400 (Cycle.total_garbage_collected c);
  !words

(* The collector pays per garbage vertex: with equal garbage, the step
   that runs restructure allocates about the same at 2k and at 8k live
   vertices — under half a word per extra live vertex. *)
let test_restructure_words_flat_in_live_set () =
  let small = finishing_step_words ~live:2_000 and large = finishing_step_words ~live:8_000 in
  let per_live = (large -. small) /. 6_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "finishing step: %.0f words at 2k live, %.0f at 8k (%.2f per extra live vertex)"
       small large per_live)
    true (per_live < 0.5)

(* Minor words of the step that finishes a second cycle over [fresh]
   unreachable births, after a first cycle reclaimed 12,000 vertices. *)
let second_finishing_step_words ~fresh =
  let spec =
    { Builder.live = 1_000; garbage = 12_000; free_pool = 0; avg_degree = 2.0; cycle_bias = 0.1 }
  in
  let g = Builder.random ~num_pes:8 (Dgr_util.Rng.create 5) spec in
  let e = engine_for ~deadlock_every:0 ~idle_gap:50 g in
  let c = run_cycles e 1 in
  Alcotest.(check int) "first cycle" 12_000 (Cycle.total_garbage_collected c);
  for i = 0 to fresh - 1 do
    ignore (Graph.alloc ~from:(i mod 8) g (Label.Int i) : Vertex.t)
  done;
  let words = ref nan in
  while Cycle.cycles_completed c = 1 do
    let w0 = Gc.minor_words () in
    Engine.step e;
    words := Gc.minor_words () -. w0
  done;
  Alcotest.(check int) "second cycle" fresh (Option.get (Cycle.last_report c)).Restructure.garbage;
  !words

(* Once the verdict vectors have grown, restructure allocates nothing
   per garbage vertex: the step that finishes the second cycle costs the
   same over 2,000 and 8,000 garbage vertices, and under 0.1 minor words
   per garbage vertex at 8,000. *)
let test_second_cycle_verdicts_reuse_vectors () =
  let small = second_finishing_step_words ~fresh:2_000
  and large = second_finishing_step_words ~fresh:8_000 in
  let per_extra = (large -. small) /. 6_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "finishing step: %.0f words at 2k garbage, %.0f at 8k (%.3f per extra)" small
       large per_extra)
    true
    (per_extra < 0.1 && large /. 8_000.0 < 0.1)

let suite =
  [
    Alcotest.test_case "collects unreachable clusters" `Quick test_collects_unreachable;
    Alcotest.test_case "live data survives repeated cycles" `Quick
      test_live_never_collected_across_cycles;
    Alcotest.test_case "deadlock needs M_T (and finds it)" `Quick
      test_deadlock_reported_only_with_mt;
    Alcotest.test_case "sched_prior persists past plane reset" `Quick test_sched_prior_persists;
    Alcotest.test_case "irrelevant tasks purged" `Quick test_irrelevant_tasks_purged;
    Alcotest.test_case "double start rejected" `Quick test_start_cycle_twice_rejected;
    Alcotest.test_case "M_T runs before M_R" `Quick test_mt_before_mr_order;
    Alcotest.test_case "empty graph cycles" `Quick test_cycle_with_empty_graph;
    Alcotest.test_case "GAR' oracle: releases and purge match the verdicts" `Quick
      test_gar_oracle;
    Alcotest.test_case "restructure words do not grow with the live set" `Quick
      test_restructure_words_flat_in_live_set;
    Alcotest.test_case "a request into a released, re-born slot never runs" `Quick
      test_request_into_released_slot_never_runs;
    Alcotest.test_case "a stale task does not seed M_T" `Quick test_stale_task_does_not_seed;
    Alcotest.test_case "a second cycle's verdicts reuse their vectors" `Quick
      test_second_cycle_verdicts_reuse_vectors;
  ]
