(* The §6 space optimization: flood marking with per-PE counters and
   termination detection. Must compute exactly the same sets as the
   marking-tree scheme, statically and under concurrent mutation. *)
open Dgr_graph
open Dgr_core
open Dgr_util

let qtest = QCheck_alcotest.to_alcotest

(* Flood a graph to quiescence on the synchronous engine (the full
   distributed execution is exercised through the simulator below); the
   counters must balance. *)
let flood_drain ?order g variant seeds =
  let e = Sync_engine.create ?order g in
  let fl = Sync_engine.start_flood e variant ~seeds in
  let (_ : int) = Sync_engine.drain e in
  Alcotest.(check int) "counters balance" (Flood.sent_total fl) (Flood.executed_total fl);
  Alcotest.(check int) "outstanding zero" 0 (Flood.outstanding fl);
  fl

let test_termination_detector () =
  let t = Termination.create ~window:5 ~epoch:7 ~pes:2 in
  (* silence is not termination: every PE must have reported *)
  Termination.observe t ~now:0;
  Alcotest.(check bool) "no reports" false (Termination.terminated t);
  Termination.learn t ~pe:0 ~epoch:7 ~sent:3 ~executed:1;
  Termination.learn t ~pe:1 ~epoch:7 ~sent:0 ~executed:0;
  Termination.observe t ~now:0;
  Alcotest.(check bool) "busy" false (Termination.terminated t);
  (* a credit from a superseded wave must be ignored *)
  Termination.learn t ~pe:0 ~epoch:6 ~sent:90 ~executed:1;
  Termination.learn t ~pe:0 ~epoch:7 ~sent:3 ~executed:3;
  Termination.observe t ~now:1;
  Termination.observe t ~now:3;
  Alcotest.(check bool) "quiet but window not elapsed" false (Termination.terminated t);
  Termination.observe t ~now:6;
  Alcotest.(check bool) "two observations apart" true (Termination.terminated t);
  Alcotest.(check int) "stale credit never merged" 3 (Termination.learned_sent t);
  (* a racing task between observations resets the first observation *)
  let t2 = Termination.create ~window:5 ~epoch:1 ~pes:1 in
  Termination.learn t2 ~pe:0 ~epoch:1 ~sent:5 ~executed:5;
  Termination.observe t2 ~now:10;
  Termination.learn t2 ~pe:0 ~epoch:1 ~sent:6 ~executed:6;
  Termination.observe t2 ~now:16;
  Alcotest.(check bool) "sum moved between observations" false (Termination.terminated t2);
  Termination.observe t2 ~now:22;
  Alcotest.(check bool) "stable afterwards" true (Termination.terminated t2)

let test_flood_marks_reachable () =
  let g = Graph.create () in
  let root = Builder.binary_tree g ~depth:4 in
  Graph.set_root g root;
  let junk = Builder.cycle g 4 in
  let fl = flood_drain g Run.Basic [ root ] in
  let marked = Helpers.marked_set g Plane.MR in
  let expected = Dgr_analysis.Reach.reachable_from (Snapshot.take g) [ root ] in
  Helpers.check_vid_set "flood = R" expected marked;
  Alcotest.(check bool) "junk untouched" true
    (Vertex.unmarked (Graph.vertex g junk) Plane.MR);
  Alcotest.(check int) "2 words per PE" 2 (Flood.bookkeeping_words fl)

let spec_gen =
  QCheck.Gen.(
    map3
      (fun live garbage seed ->
        ( { Builder.live = 5 + live; garbage; free_pool = 30;
            avg_degree = 1.2 +. (float_of_int (seed land 7) /. 4.0);
            cycle_bias = float_of_int (seed land 3) /. 4.0 },
          seed ))
      (int_bound 80) (int_bound 40) (int_bound 50_000))

let arb_spec = QCheck.make spec_gen

let prop_flood_equals_tree_static =
  QCheck.Test.make ~name:"flood priorities = tree priorities (static)" ~count:60 arb_spec
    (fun (spec, seed) ->
      List.for_all
        (fun (_, order) ->
          let g1 = Builder.random_with_requests (Rng.create seed) spec in
          let g2 = Builder.random_with_requests (Rng.create seed) spec in
          (* tree on g1 *)
          let (_ : Run.t) = Sync_engine.mark ~order g1 Run.Priority ~seeds:[ Graph.root g1 ] in
          (* flood on g2 *)
          let (_ : Flood.t) = flood_drain ~order g2 Run.Priority [ Graph.root g2 ] in
          Graph.fold_live
            (fun ok v ->
              ok
              &&
              let w = Graph.vertex g2 (Vertex.id v) in
              Vertex.marked v Plane.MR = Vertex.marked w Plane.MR
              && Vertex.prior v Plane.MR = Vertex.prior w Plane.MR)
            true g1)
        (Helpers.orders (Rng.create (seed + 7))))

let prop_flood_mt_equals_oracle =
  QCheck.Test.make ~name:"flood M_T = oracle T" ~count:40 arb_spec
    (fun (spec, seed) ->
      List.for_all
        (fun (_, order) ->
          let g = Builder.random_with_requests (Rng.create seed) spec in
          let rng = Rng.create (seed * 5) in
          let tasks =
            Graph.fold_live
              (fun acc v ->
                List.fold_left
                  (fun acc (e : Vertex.request_entry) ->
                    if Rng.int rng 2 = 0 then
                      Dgr_task.Task.Request
                        { src = e.Vertex.who; dst = (Vertex.id v); demand = e.Vertex.demand;
                          key = e.Vertex.key }
                      :: acc
                    else acc)
                  acc (Vertex.requested v))
              [] g
          in
          let seeds =
            List.concat_map Dgr_task.Task.reduction_endpoints tasks |> List.sort_uniq compare
          in
          let (_ : Flood.t) = flood_drain ~order g Run.Tasks seeds in
          Vid.Set.equal (Helpers.marked_set g Plane.MT)
            (Dgr_analysis.Reach.task_reachable_from (Snapshot.take g) tasks))
        (Helpers.orders (Rng.create (seed + 7))))

(* Under concurrent mutation: drive the flood on the synchronous engine
   while an axiom-safe adversary mutates between executions; everything
   reachable at the end must be marked, nothing garbage-at-start may be
   marked. *)
let prop_flood_safety_liveness_under_mutation =
  QCheck.Test.make ~name:"flood safety+liveness under mutation" ~count:40 arb_spec
    (fun (spec, seed) ->
      let rng = Rng.create (seed + 91) in
      let g = Builder.random (Rng.create seed) spec in
      let gar_tb =
        let snap = Snapshot.take g in
        let r = Dgr_analysis.Reach.reachable_from snap [ Graph.root g ] in
        Graph.fold_live
          (fun acc v ->
            if Vid.Set.mem (Vertex.id v) r then acc else Vid.Set.add (Vertex.id v) acc)
          Vid.Set.empty g
      in
      let e = Sync_engine.create g in
      let mut = Sync_engine.mutator e in
      let fl = Sync_engine.start_flood e Run.Priority ~seeds:[ Graph.root g ] in
      let adversary _ =
        if Rng.int rng 3 = 0 then begin
          let live = Graph.live_vids g in
          let pick () = Rng.choose_list rng live in
          match Rng.int rng 3 with
          | 0 -> (
            let a = pick () in
            match Graph.children g a with
            | [] -> ()
            | bs -> (
              let b = Rng.choose_list rng bs in
              match Graph.children g b with
              | [] -> ()
              | cs -> Mutator.add_reference mut ~a ~b ~c:(Rng.choose_list rng cs)))
          | 1 -> (
            let a = pick () in
            match Graph.children g a with
            | [] -> ()
            | bs -> Mutator.delete_reference mut ~a ~b:(Rng.choose_list rng bs))
          | _ ->
            let a = pick () in
            if Graph.headroom g > 3 then begin
              let inner = Graph.alloc g Label.Ind in
              List.iter
                (fun old -> Mutator.connect_fresh mut ~parent:(Vertex.id inner) ~child:old)
                (Graph.children g a);
              Mutator.expand_node mut ~a ~entry:(Vertex.id inner)
            end
        end
      in
      let (_ : int) = Sync_engine.drain ~interleave:adversary ~max_steps:5_000_000 e in
      let reachable = Dgr_analysis.Reach.reachable_from (Snapshot.take g) [ Graph.root g ] in
      let liveness =
        Vid.Set.for_all
          (fun v -> Vertex.marked (Graph.vertex g v) Plane.MR)
          reachable
      in
      let safety =
        Vid.Set.for_all
          (fun v -> Vertex.unmarked (Graph.vertex g v) Plane.MR)
          gar_tb
      in
      liveness && safety && Flood.outstanding fl = 0)

(* End-to-end: the whole machine under the flood scheme computes the same
   results and still collects, detects deadlock, etc. *)
let engine_flood_config gc =
  Dgr_sim.Engine.Config.make ~gc ~marking:Cycle.Flood_counters ()

let test_engine_flood_programs () =
  List.iter
    (fun (src, expected) ->
      let config =
        engine_flood_config (Dgr_sim.Engine.Concurrent { deadlock_every = 2; idle_gap = 20 })
      in
      let g, templates = Dgr_lang.Compile.load_string ~num_pes:4 src in
      let e = Dgr_sim.Engine.create ~config g templates in
      Dgr_sim.Engine.inject_root_demand e;
      let (_ : int) = Dgr_sim.Engine.run ~max_steps:400_000 e in
      Alcotest.(check bool) "result" true
        (Dgr_sim.Engine.result e = Some (Label.V_int expected));
      Alcotest.(check (list string)) "valid" [] (Validate.check g))
    [
      (Dgr_lang.Prelude.fib 10, Dgr_lang.Prelude.fib_expected 10);
      (Dgr_lang.Prelude.sum_range 10, Dgr_lang.Prelude.sum_range_expected 10);
      (Dgr_lang.Prelude.speculative 30, 42);
    ]

let test_engine_flood_collects () =
  let config =
    engine_flood_config (Dgr_sim.Engine.Concurrent { deadlock_every = 0; idle_gap = 10 })
  in
  let g, templates = Dgr_lang.Compile.load_string ~num_pes:4 (Dgr_lang.Prelude.fib 11) in
  let e = Dgr_sim.Engine.create ~config g templates in
  Dgr_sim.Engine.inject_root_demand e;
  let (_ : int) = Dgr_sim.Engine.run ~max_steps:400_000 e in
  Alcotest.(check bool) "finished" true (Dgr_sim.Engine.finished e);
  match Dgr_sim.Engine.cycle e with
  | Some c ->
    Alcotest.(check bool) "collected concurrently" true
      (Cycle.total_garbage_collected c > 0)
  | None -> Alcotest.fail "no controller"

let test_engine_flood_deadlock () =
  let config =
    engine_flood_config (Dgr_sim.Engine.Concurrent { deadlock_every = 1; idle_gap = 10 })
  in
  let g, templates = Dgr_lang.Compile.load_string Dgr_lang.Prelude.deadlock in
  let e = Dgr_sim.Engine.create ~config g templates in
  Dgr_sim.Engine.inject_root_demand e;
  let found t =
    match Dgr_sim.Engine.cycle t with
    | Some c -> not (Vid.Set.is_empty (Cycle.deadlocked_ever c))
    | None -> false
  in
  let (_ : int) = Dgr_sim.Engine.run ~max_steps:50_000 ~stop:found e in
  Alcotest.(check bool) "deadlock detected under flood scheme" true (found e)

let suite =
  [
    Alcotest.test_case "termination detector" `Quick test_termination_detector;
    Alcotest.test_case "flood marks exactly R" `Quick test_flood_marks_reachable;
    qtest prop_flood_equals_tree_static;
    qtest prop_flood_mt_equals_oracle;
    qtest prop_flood_safety_liveness_under_mutation;
    Alcotest.test_case "engine end-to-end (flood)" `Quick test_engine_flood_programs;
    Alcotest.test_case "engine collects (flood)" `Quick test_engine_flood_collects;
    Alcotest.test_case "engine detects deadlock (flood)" `Quick test_engine_flood_deadlock;
  ]

(* The two bookkeeping schemes must be observationally equivalent on the
   full machine: same results on random programs. *)
let prop_schemes_agree_end_to_end =
  QCheck.Test.make ~name:"tree and flood engines compute the same results" ~count:20
    QCheck.(int_bound 1_000)
    (fun seed ->
      let source =
        match seed mod 3 with
        | 0 -> Dgr_lang.Prelude.fib (7 + (seed mod 4))
        | 1 -> Dgr_lang.Prelude.sum_range (4 + (seed mod 8))
        | _ -> Dgr_lang.Prelude.speculative (10 + (seed mod 25))
      in
      let run scheme =
        let config =
          Dgr_sim.Engine.Config.make
            ~num_pes:(1 + (seed mod 5))
            ~gc:
              (Dgr_sim.Engine.Concurrent
                 { deadlock_every = 2; idle_gap = 5 + (seed mod 20) })
            ~marking:scheme ()
        in
        let g, templates =
          Dgr_lang.Compile.load_string
            ~num_pes:(Dgr_sim.Engine.Config.num_pes config)
            source
        in
        let e = Dgr_sim.Engine.create ~config g templates in
        Dgr_sim.Engine.inject_root_demand e;
        let (_ : int) = Dgr_sim.Engine.run ~max_steps:300_000 e in
        Dgr_sim.Engine.result e
      in
      let a = run Cycle.Tree and b = run Cycle.Flood_counters in
      a <> None && a = b)

let suite = suite @ [ qtest prop_schemes_agree_end_to_end ]
