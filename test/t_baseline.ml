(* GC baselines: distributed reference counting and stop-the-world. *)
open Dgr_graph
open Dgr_baseline

let test_rc_adopts_existing_edges () =
  let g = Graph.create () in
  let b = Builder.add g (Label.Int 1) [] in
  let a = Builder.add_root g Label.If [ b; b ] in
  ignore a;
  let rc = Refcount.create g in
  Alcotest.(check int) "both occurrences counted" 2 (Refcount.count rc b)

let test_rc_frees_on_zero_and_cascades () =
  let g = Graph.create () in
  let c = Builder.add g (Label.Int 1) [] in
  let b = Builder.add g Label.Ind [ c ] in
  let a = Builder.add_root g Label.Ind [ b ] in
  let rc = Refcount.create g in
  Refcount.pin rc a;
  Refcount.on_disconnect rc a b;
  Vertex.disconnect (Graph.vertex g a) b;
  Alcotest.(check bool) "b freed" true (Vertex.free (Graph.vertex g b));
  Alcotest.(check bool) "cascade freed c" true (Vertex.free (Graph.vertex g c));
  Alcotest.(check int) "reclaimed count" 2 (Refcount.reclaimed rc)

let test_rc_cannot_reclaim_cycles () =
  let g = Graph.create () in
  let (_ : Vid.t) = Builder.add_root g (Label.Int 0) [] in
  let ring = Builder.cycle g 4 in
  let holder = Builder.add g Label.Ind [ ring ] in
  let rc = Refcount.create g in
  Refcount.pin rc (Graph.root g);
  (* drop the only external reference into the ring *)
  Refcount.on_disconnect rc holder ring;
  Vertex.disconnect (Graph.vertex g holder) ring;
  Alcotest.(check bool) "ring member still live (leak)" false
    (Vertex.free (Graph.vertex g ring));
  (* the holder has count 0 (never referenced) so it is not part of the
     positive-count leak census; the four ring members are *)
  Alcotest.(check int) "leak reported" 4 (List.length (Refcount.leaked rc))

let test_rc_cycle_leak_exact () =
  let g = Graph.create () in
  let (_ : Vid.t) = Builder.add_root g (Label.Int 0) [] in
  let ring = Builder.cycle g 4 in
  let rc = Refcount.create g in
  ignore ring;
  Alcotest.(check int) "exactly the ring leaks" 4 (List.length (Refcount.leaked rc))

let test_rc_pin_unpin () =
  let g = Graph.create () in
  let v = Builder.add_root g (Label.Int 1) [] in
  let w = Builder.add g (Label.Int 2) [] in
  let rc = Refcount.create g in
  Refcount.pin rc w;
  Refcount.unpin rc w;
  Alcotest.(check bool) "unpin frees unreferenced vertex" true (Vertex.free (Graph.vertex g w));
  Refcount.pin rc v;
  Refcount.unpin rc v;
  Alcotest.(check bool) "the root is never freed" false (Vertex.free (Graph.vertex g v))

let test_rc_messages_cross_pe_only () =
  let g = Graph.create ~num_pes:2 () in
  let b = Graph.alloc ~pe:0 g (Label.Int 1) in
  let c = Graph.alloc ~pe:1 g (Label.Int 2) in
  let a = Graph.alloc ~pe:0 g Label.If in
  Graph.set_root g (Vertex.id a);
  let rc = Refcount.create g in
  Refcount.on_connect rc (Vertex.id a) (Vertex.id b);
  Vertex.connect a (Vertex.id b);
  Alcotest.(check int) "same-PE inc is local" 0 (Refcount.messages rc);
  Refcount.on_connect rc (Vertex.id a) (Vertex.id c);
  Vertex.connect a (Vertex.id c);
  Alcotest.(check int) "cross-PE inc is a message" 1 (Refcount.messages rc)

(* RC needs no hook into the task plane: a free bumps the slot's
   generation, so a task recorded before it is stale, and one recorded
   after it (for the slot's next occupant) is not. *)
let test_rc_free_makes_tasks_stale () =
  let g = Graph.create () in
  let b = Builder.add g (Label.Int 1) [] in
  let a = Builder.add_root g Label.Ind [ b ] in
  let rc = Refcount.create g in
  Refcount.pin rc a;
  let r = Dgr_task.Task.Request { src = Some a; dst = b; demand = Demand.Vital; key = b } in
  let before = Graph.releases g in
  Alcotest.(check bool) "fresh before the free" false (Dgr_task.Task.stale g before r);
  Refcount.on_disconnect rc a b;
  Vertex.disconnect (Graph.vertex g a) b;
  Alcotest.(check bool) "freed" true (Vertex.free (Graph.vertex g b));
  Alcotest.(check int) "count column reads 0" 0 (Refcount.count rc b);
  Alcotest.(check bool) "stale after the free" true (Dgr_task.Task.stale g before r);
  Alcotest.(check bool) "a send after the free is not" false
    (Dgr_task.Task.stale g (Graph.releases g) r)

(* Stop-the-world is the engine's own arm: mark1 from the root on a mark
   ring, then restructure's release path. [stw_machine g] wraps [g] in a
   machine that collects every [every] steps (default 1); [collect_once
   e] steps it through its next collection. *)
let stw_machine ?(num_pes = 4) ?(tasks_per_step = 2) ?(every = 1) g =
  let module Engine = Dgr_sim.Engine in
  let config =
    Engine.Config.make ~num_pes ~tasks_per_step ~gc:(Engine.Stop_the_world { every }) ()
  in
  Engine.create ~config g (Dgr_reduction.Template.create_registry ())

let stw_collections e = (Dgr_sim.Engine.metrics e).Dgr_sim.Metrics.stw_collections

let collect_once e =
  let n = stw_collections e in
  while stw_collections e = n do
    Dgr_sim.Engine.step e
  done

let test_stw_collects_and_purges () =
  let g = Graph.create () in
  let live = Builder.chain g 4 in
  Graph.set_root g live;
  let junk = Builder.cycle g 5 in
  (* one irrelevant task addressed into the junk, one live one, both
     recorded before the sweep *)
  let red = function Dgr_task.Task.Reduction r -> r | Dgr_task.Task.Marking _ -> assert false in
  let tasks =
    List.map
      (fun task ->
        let r = red task in
        (Graph.releases g, r))
      [ Dgr_task.Task.request junk Demand.Eager; Dgr_task.Task.request live Demand.Vital ]
  in
  let e = stw_machine g in
  let before = Graph.live_count g in
  collect_once e;
  Alcotest.(check int) "marked" 4 (Graph.live_count g);
  Alcotest.(check int) "reclaimed" 5 (before - Graph.live_count g);
  Alcotest.(check int) "only the junk task is stale" 1
    (List.length (List.filter (fun (gen, r) -> Dgr_task.Task.stale g gen r) tasks));
  Alcotest.(check bool) "junk freed" true (Vertex.free (Graph.vertex g junk));
  Alcotest.(check bool) "live kept" false (Vertex.free (Graph.vertex g live));
  Alcotest.(check (list string)) "graph valid after sweep" [] (Validate.check g)

let test_stw_cleans_dangling_requesters () =
  let g = Graph.create () in
  let live = Builder.add_root g Label.Bottom [] in
  let junk = Builder.add g Label.If [] in
  Vertex.add_requester (Graph.vertex g live) (Some junk) ~demand:Demand.Eager ~key:live;
  collect_once (stw_machine g);
  Alcotest.(check bool) "junk reclaimed" true (Vertex.free (Graph.vertex g junk));
  Alcotest.(check int) "dangling requester dropped" 0
    (List.length (Vertex.requested (Graph.vertex g live)))

(* The engine's collection against the Reach oracle on two copies of
   one random graph (requester rows included): the same survivors, the
   same requester rows on them, a valid graph, and the oracle's pause
   work charged. *)
let test_stw_matches_reach_oracle () =
  let module Metrics = Dgr_sim.Metrics in
  for seed = 0 to 19 do
    let num_pes = 1 + (seed mod 4) in
    let build () =
      Builder.random_with_requests ~num_pes (Dgr_util.Rng.create seed) (Helpers.fuzz_spec seed)
    in
    let ga = build () and gb = build () in
    let e = stw_machine ~num_pes ga in
    let before = Graph.live_count ga in
    collect_once e;
    let oracle = Helpers.Stw.collect gb in
    let what s = Printf.sprintf "seed %d: %s" seed s in
    Helpers.check_vid_set (what "live set = oracle's")
      (Vid.Set.of_list (Graph.live_vids gb))
      (Vid.Set.of_list (Graph.live_vids ga));
    Alcotest.(check int) (what "reclaimed = oracle's") oracle.Helpers.Stw.reclaimed
      (before - Graph.live_count ga);
    List.iter
      (fun v ->
        let whos g = List.map (fun r -> r.Vertex.who) (Vertex.requested (Graph.vertex g v)) in
        Alcotest.(check (list (option int))) (what "requester rows = oracle's") (whos gb) (whos ga))
      (Graph.live_vids gb);
    Alcotest.(check (list string)) (what "graph validates") [] (Validate.check ga);
    let c = Dgr_sim.Engine.config e in
    let per_step = Dgr_sim.Engine.Config.(num_pes c * tasks_per_step c * gc_work_factor c) in
    Alcotest.(check int) (what "pause = the oracle's work")
      ((oracle.Helpers.Stw.work + per_step - 1) / per_step)
      (Dgr_sim.Engine.metrics e).Metrics.total_pause_steps
  done

(* A reduction pooled behind another when a collection releases its
   destination is dropped at that collection, not when it is next
   popped. *)
let test_stw_drops_stale_pooled () =
  let module Engine = Dgr_sim.Engine in
  let g = Graph.create () in
  let live = Builder.add_root g (Label.Int 1) [] in
  let junk = Builder.cycle g 3 in
  (* The injected requests arrive after the controller's latency, on
     the step the first collection runs. *)
  let every = Engine.Config.latency Engine.Config.default in
  let e = stw_machine ~num_pes:1 ~tasks_per_step:1 ~every g in
  (* the vital request pops first and fills the step's budget *)
  Engine.inject e (Dgr_task.Task.request live Demand.Vital);
  Engine.inject e (Dgr_task.Task.request junk Demand.Eager);
  collect_once e;
  Alcotest.(check int) "the vital request ran" 1
    (Engine.metrics e).Dgr_sim.Metrics.reduction_executed;
  Alcotest.(check int) "nothing in flight" 0 (Dgr_sim.Network.size (Engine.network e));
  Alcotest.(check bool) "junk released" true (Vertex.free (Graph.vertex g junk));
  Alcotest.(check int) "the pool holds nothing" 0 (Dgr_sim.Pool.length (Engine.pool e 0));
  Alcotest.(check int) "one task dropped" 1 (Engine.metrics e).Dgr_sim.Metrics.tasks_purged

(* A refcounting machine steps its shards like any other machine: each
   PE logs its count changes and the barrier applies them — every
   increment, then every decrement; a free bumps the slot's generation,
   so the tasks that address what was freed go stale. After every step
   no live vertex may point at a free slot, no live pending task may
   address a freed vertex, and the end state must not depend on how
   the PEs are grouped into shards. *)
let rc_machine_digest ~domains source expected =
  let module Engine = Dgr_sim.Engine in
  let config =
    Engine.Config.make ~num_pes:4 ~domains ~gc:Engine.Refcount ~jitter:0.1 ~seed:3 ()
  in
  let g, templates = Dgr_lang.Compile.load_string ~num_pes:4 source in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  let freed v = Vertex.free (Graph.vertex g v) in
  while (not (Engine.finished e)) && Engine.now e < 100_000 do
    Engine.step e;
    (match Validate.check g with
    | [] -> ()
    | errs ->
      Alcotest.failf "domains %d, step %d: %s" domains (Engine.now e)
        (String.concat "; " errs));
    List.iter
      (function
        | Dgr_task.Task.Reduction r as task ->
          if List.exists freed (Dgr_task.Task.reduction_endpoints r) then
            Alcotest.failf "domains %d, step %d: pending %s addresses a freed vertex"
              domains (Engine.now e) (Dgr_task.Task.to_string task)
        | Dgr_task.Task.Marking _ -> ())
      (Engine.pending_tasks e)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "domains %d: correct result" domains)
    true
    (Engine.result e = Some (Label.V_int expected));
  let rc = Option.get (Engine.refcount e) in
  Alcotest.(check bool) "rc reclaimed something" true (Refcount.reclaimed rc > 0);
  let digest =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%d|%d|%s|%s" (Engine.now e) (Refcount.reclaimed rc)
            (String.concat "," (List.map Vid.to_string (Graph.live_vids g)))
            (Dgr_sim.Metrics.to_json (Engine.metrics e))))
  in
  digest

let test_rc_machine_safe_at_every_step () =
  List.iter
    (fun (name, source, expected) ->
      let d1 = rc_machine_digest ~domains:1 source expected in
      List.iter
        (fun domains ->
          Alcotest.(check string)
            (Printf.sprintf "%s: same end state at %d domains" name domains)
            d1
            (rc_machine_digest ~domains source expected))
        [ 2; 4 ])
    [
      ("sum_range 16", Dgr_lang.Prelude.sum_range 16, Dgr_lang.Prelude.sum_range_expected 16);
      ("fib 10", Dgr_lang.Prelude.fib 10, Dgr_lang.Prelude.fib_expected 10);
    ]

let suite =
  [
    Alcotest.test_case "rc adopts existing edges" `Quick test_rc_adopts_existing_edges;
    Alcotest.test_case "rc frees on zero, cascades" `Quick test_rc_frees_on_zero_and_cascades;
    Alcotest.test_case "rc cannot reclaim cycles (§4)" `Quick test_rc_cannot_reclaim_cycles;
    Alcotest.test_case "rc leak census" `Quick test_rc_cycle_leak_exact;
    Alcotest.test_case "rc pin/unpin" `Quick test_rc_pin_unpin;
    Alcotest.test_case "rc message accounting" `Quick test_rc_messages_cross_pe_only;
    Alcotest.test_case "rc free makes tasks stale" `Quick test_rc_free_makes_tasks_stale;
    Alcotest.test_case "stw collects and purges" `Quick test_stw_collects_and_purges;
    Alcotest.test_case "stw cleans dangling requesters" `Quick
      test_stw_cleans_dangling_requesters;
    Alcotest.test_case "stw releases the Reach oracle's garbage" `Quick
      test_stw_matches_reach_oracle;
    Alcotest.test_case "stw drops a pooled task it made stale" `Quick test_stw_drops_stale_pooled;
    Alcotest.test_case "rc machine: no dangling slot or task, same bytes at 1/2/4 domains"
      `Quick test_rc_machine_safe_at_every_step;
  ]
