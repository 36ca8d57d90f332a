(* The paper's correctness theorems (§5.4) under adversarial concurrency:
   marking runs to completion while a mutation adversary (restricted to
   the reduction axioms) edits the graph between every task execution. *)
open Dgr_graph
open Dgr_core
open Dgr_util

let qtest = QCheck_alcotest.to_alcotest

(* An axiom-respecting adversary. Witness-based add-reference can never
   resurrect garbage (the new target was already reachable from the
   source); deletion only shrinks R; expand-node takes vertices from F.

   With [monotone_requests] set (Theorem 2), the adversary is restricted
   to mutations under which the paper's reduction axioms 2/5/6 hold
   literally: task-reachability must never grow except from F, and
   vitally-requested paths must persist. That leaves expand-node and
   demand upgrades (recording req-args only {e removes} edges from M_T's
   traced relation); adding plain references or fabricating [requested]
   entries could conjure task-reachability the real reduction process
   would have had to earn with an actual task. *)
let adversary ?(monotone_requests = false) rng mut g prob _step =
  if Rng.int rng prob = 0 then begin
    let live = Graph.live_vids g in
    if live <> [] then begin
      let pick () = Rng.choose_list rng live in
      match Rng.int rng 4 with
      | 0 when not monotone_requests -> (
        let a = pick () in
        match Graph.children g a with
        | [] -> ()
        | bs -> (
          let b = Rng.choose_list rng bs in
          match Graph.children g b with
          | [] -> ()
          | cs -> Mutator.add_reference mut ~a ~b ~c:(Rng.choose_list rng cs)))
      | 1 when not monotone_requests -> (
        let a = pick () in
        match Graph.children g a with
        | [] -> ()
        | bs -> Mutator.delete_reference mut ~a ~b:(Rng.choose_list rng bs))
      | 2 ->
        (* Expansion mirrors the real reducer: only Apply-like vertices
           with {e no} requested args are expanded (the reduction process
           never splices below a vertex that already vitally requested a
           child — doing so would break axiom 5's "the req-args_v chain
           remains intact"). *)
        let a = pick () in
        let va = Graph.vertex g a in
        if Graph.headroom g > 3 && Vertex.req_args va = [] then begin
          let inner = Graph.alloc g Label.Ind in
          List.iter
            (fun old -> Mutator.connect_fresh mut ~parent:(Vertex.id inner) ~child:old)
            (Graph.children g a);
          Mutator.expand_node mut ~a ~entry:(Vertex.id inner)
        end
      | 3 -> (
        (* demand an existing child: a pure upgrade *)
        let a = pick () in
        match Graph.children g a with
        | [] -> ()
        | bs ->
          let b = Rng.choose_list rng bs in
          let d = if Rng.bool rng then Demand.Vital else Demand.Eager in
          Mutator.request_child mut ~v:a ~c:b ~demand:d;
          if not monotone_requests then
            Mutator.record_request mut ~at:b ~who:a ~demand:d ~key:b)
      | _ -> ()
    end
  end

let spec_gen =
  QCheck.Gen.(
    map3
      (fun live garbage seed ->
        ( { Builder.live = 10 + live; garbage = 5 + garbage; free_pool = 40;
            avg_degree = 1.2 +. (float_of_int (seed land 7) /. 4.0);
            cycle_bias = float_of_int (seed land 3) /. 4.0 },
          seed ))
      (int_bound 60) (int_bound 30) (int_bound 100_000))

(* A failing case prints as the [(spec, seed)] pair it ran, ready to
   replay as a plain case. *)
let print_spec ((s : Builder.random_spec), seed) =
  Printf.sprintf
    "({ live = %d; garbage = %d; free_pool = %d; avg_degree = %g; cycle_bias = %g }, %d)"
    s.Builder.live s.garbage s.free_pool s.avg_degree s.cycle_bias seed

let arb_spec = QCheck.make ~print:print_spec spec_gen

(* Theorem 1: GAR(t_b) ⊆ GAR'(t) ⊆ GAR(t).
   All garbage existing when M_R starts is identified, and nothing
   identified is live. *)
let prop_theorem_1 =
  QCheck.Test.make ~name:"Theorem 1: GAR(t_b) ⊆ GAR' ⊆ GAR(t_c) under mutation" ~count:50
    arb_spec
    (fun (spec, seed) ->
      let rng = Rng.create (seed + 17) in
      let g = Builder.random (Rng.create seed) spec in
      let gar_tb =
        let snap = Snapshot.take g in
        let r = Dgr_analysis.Reach.reachable_from snap [ Graph.root g ] in
        Graph.fold_live
          (fun acc v -> if Vid.Set.mem (Vertex.id v) r then acc else Vid.Set.add (Vertex.id v) acc)
          Vid.Set.empty g
      in
      let engine = Sync_engine.create ~order:(Sync_engine.Random (Rng.split rng)) g in
      let run = Sync_engine.start engine Run.Priority ~seeds:[ Graph.root g ] in
      let mut = Sync_engine.mutator engine in
      let (_ : int) =
        Sync_engine.drain ~interleave:(adversary rng mut g 3) engine
      in
      if not run.Run.finished then false
      else begin
        let gar' =
          Graph.fold_live
            (fun acc v ->
              if Vertex.unmarked v Plane.MR then Vid.Set.add (Vertex.id v) acc else acc)
            Vid.Set.empty g
        in
        let gar_tc =
          let snap = Snapshot.take g in
          let r = Dgr_analysis.Reach.reachable_from snap [ Graph.root g ] in
          Graph.fold_live
            (fun acc v ->
              if Vid.Set.mem (Vertex.id v) r then acc else Vid.Set.add (Vertex.id v) acc)
            Vid.Set.empty g
        in
        (* gar_tb restricted to vertices still live (expand-node never
           touches them, so they all remain) *)
        Vid.Set.subset gar_tb gar' && Vid.Set.subset gar' gar_tc
      end)

(* Theorem 2: DL_v(t_a) ⊆ DL' ⊆ DL_v(t_c), with M_T before M_R and a
   monotone adversary (requests are never dereferenced — axioms 5/6). *)
let prop_theorem_2 =
  QCheck.Test.make ~name:"Theorem 2: DL_v(t_a) ⊆ DL' ⊆ DL_v(t_c) under mutation" ~count:50
    arb_spec
    (fun (spec, seed) ->
      let rng = Rng.create (seed + 23) in
      let g = Builder.random_with_requests (Rng.create seed) spec in
      (* a modest static task population *)
      let tasks =
        Graph.fold_live
          (fun acc v ->
            List.fold_left
              (fun acc (e : Vertex.request_entry) ->
                if Rng.int rng 3 = 0 then
                  Dgr_task.Task.Request
                    { src = e.Vertex.who; dst = (Vertex.id v); demand = e.Vertex.demand;
                      key = e.Vertex.key }
                  :: acc
                else acc)
              acc (Vertex.requested v))
          [] g
      in
      let dl_of_snapshot () =
        let sets = Dgr_analysis.Classify.compute (Snapshot.take g) ~tasks in
        sets.Dgr_analysis.Classify.deadlocked
      in
      let dl_ta = dl_of_snapshot () in
      let engine = Sync_engine.create ~order:(Sync_engine.Random (Rng.split rng)) g in
      let mut = Sync_engine.mutator engine in
      (* M_T first (Theorem 2's required order) *)
      let seeds =
        List.concat_map Dgr_task.Task.reduction_endpoints tasks |> List.sort_uniq compare
      in
      let mt = Sync_engine.start engine Run.Tasks ~seeds in
      let (_ : int) =
        Sync_engine.drain ~interleave:(adversary ~monotone_requests:true rng mut g 4) engine
      in
      (* then M_R *)
      let mr = Sync_engine.start engine Run.Priority ~seeds:[ Graph.root g ] in
      let (_ : int) =
        Sync_engine.drain ~interleave:(adversary ~monotone_requests:true rng mut g 4) engine
      in
      if not (mt.Run.finished && mr.Run.finished) then false
      else begin
        let dl' =
          Graph.fold_live
            (fun acc v ->
              if
                Vertex.marked v Plane.MR
                && Vertex.prior v Plane.MR = 3
                && not (Vertex.marked v Plane.MT)
              then Vid.Set.add (Vertex.id v) acc
              else acc)
            Vid.Set.empty g
        in
        let dl_tc = dl_of_snapshot () in
        Vid.Set.subset dl_ta dl' && Vid.Set.subset dl' dl_tc
      end)

(* Lemma 1 / safety: M_R never marks anything that was garbage at t_b. *)
let prop_mr_safety =
  QCheck.Test.make ~name:"Lemma 1: M_R never marks pre-existing garbage" ~count:50 arb_spec
    (fun (spec, seed) ->
      let rng = Rng.create (seed + 31) in
      let g = Builder.random (Rng.create seed) spec in
      let gar_tb =
        let snap = Snapshot.take g in
        let r = Dgr_analysis.Reach.reachable_from snap [ Graph.root g ] in
        Graph.fold_live
          (fun acc v -> if Vid.Set.mem (Vertex.id v) r then acc else Vid.Set.add (Vertex.id v) acc)
          Vid.Set.empty g
      in
      let engine = Sync_engine.create g in
      let run = Sync_engine.start engine Run.Priority ~seeds:[ Graph.root g ] in
      let mut = Sync_engine.mutator engine in
      let (_ : int) = Sync_engine.drain ~interleave:(adversary rng mut g 3) engine in
      run.Run.finished
      && Vid.Set.for_all
           (fun v -> Vertex.unmarked (Graph.vertex g v) Plane.MR)
           gar_tb)

(* Invariants hold at every interleaving point of a mutated M_R run.
   [invariant_run] is the property's body for one case: the violations
   of the first step that had any ([[]]: none), and whether the run
   finished. *)
let invariant_run (spec, seed) =
  let rng = Rng.create (seed + 41) in
  let g = Builder.random (Rng.create seed) spec in
  let engine = Sync_engine.create ~order:(Sync_engine.Random (Rng.split rng)) g in
  let run = Sync_engine.start engine Run.Priority ~seeds:[ Graph.root g ] in
  let mut = Sync_engine.mutator engine in
  let first = ref [] in
  let interleave step =
    adversary rng mut g 3 step;
    if !first = [] then first := Invariants.check run ~pending:(Sync_engine.pending engine)
  in
  let (_ : int) = Sync_engine.drain ~interleave engine in
  (!first, run.Run.finished)

let prop_invariants_always_hold =
  QCheck.Test.make ~name:"marking invariants hold at every step" ~count:30 arb_spec
    (fun case ->
      match invariant_run case with
      | [], finished -> finished
      | violations, _ ->
        QCheck.Test.fail_reportf "%s" (String.concat "; " violations))

(* Two cases the property drew (under QCHECK_SEED 100328 and 100395),
   replayed as plain deterministic runs. *)
let invariant_replays =
  [
    ( { Builder.live = 64; garbage = 34; free_pool = 40; avg_degree = 2.7; cycle_bias = 0.5 },
      42366 );
    ( { Builder.live = 67; garbage = 11; free_pool = 40; avg_degree = 1.7; cycle_bias = 0.5 },
      71506 );
  ]

let test_invariant_replays () =
  List.iter
    (fun case ->
      let violations, finished = invariant_run case in
      Alcotest.(check (list string)) (print_spec case) [] violations;
      Alcotest.(check bool) "run finished" true finished)
    invariant_replays

(* End-to-end safety on real programs: whatever interleaving the full
   machine produces, a cycle never reclaims a vertex that the oracle
   still sees as reachable. *)
let prop_cycle_never_collects_live =
  QCheck.Test.make ~name:"cycles never collect live vertices (end-to-end)" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let source =
        match seed mod 3 with
        | 0 -> Dgr_lang.Prelude.fib (7 + (seed mod 4))
        | 1 -> Dgr_lang.Prelude.sum_range (5 + (seed mod 6))
        | _ -> Dgr_lang.Prelude.speculative (10 + (seed mod 20))
      in
      let config =
        Dgr_sim.Engine.Config.make
          ~num_pes:(1 + (seed mod 5))
          ~gc:
            (Dgr_sim.Engine.Concurrent
               { deadlock_every = 2; idle_gap = 1 + (seed mod 9) })
          ()
      in
      let g, templates =
        Dgr_lang.Compile.load_string
          ~num_pes:(Dgr_sim.Engine.Config.num_pes config)
          source
      in
      let e = Dgr_sim.Engine.create ~config g templates in
      Dgr_sim.Engine.inject_root_demand e;
      let (_ : int) = Dgr_sim.Engine.run ~max_steps:300_000 e in
      Dgr_sim.Engine.finished e && Validate.check g = [])

let suite =
  [
    qtest prop_theorem_1;
    qtest prop_theorem_2;
    qtest prop_mr_safety;
    qtest prop_invariants_always_hold;
    Alcotest.test_case "invariant replays of drawn cases" `Quick test_invariant_replays;
    qtest prop_cycle_never_collects_live;
  ]
