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

let test_rc_on_free_callback () =
  let g = Graph.create () in
  let b = Builder.add g (Label.Int 1) [] in
  let a = Builder.add_root g Label.Ind [ b ] in
  let rc = Refcount.create g in
  Refcount.pin rc a;
  let freed = ref [] in
  Refcount.set_on_free rc (fun v -> freed := v :: !freed);
  Refcount.on_disconnect rc a b;
  Vertex.disconnect (Graph.vertex g a) b;
  Alcotest.(check (list int)) "callback saw the free" [ b ] !freed

let test_stw_collects_and_purges () =
  let g = Graph.create () in
  let live = Builder.chain g 4 in
  Graph.set_root g live;
  let junk = Builder.cycle g 5 in
  let purged = ref 0 in
  let report =
    Stw.collect g ~purge_tasks:(fun pred ->
        (* one irrelevant task addressed into the junk, one live one *)
        let tasks =
          [ Dgr_task.Task.request junk Demand.Eager; Dgr_task.Task.request live Demand.Vital ]
        in
        purged := List.length (List.filter pred tasks);
        !purged)
  in
  Alcotest.(check int) "marked" 4 report.Stw.marked;
  Alcotest.(check int) "reclaimed" 5 report.Stw.reclaimed;
  Alcotest.(check int) "only the junk task purged" 1 !purged;
  Alcotest.(check bool) "junk freed" true (Vertex.free (Graph.vertex g junk));
  Alcotest.(check bool) "live kept" false (Vertex.free (Graph.vertex g live));
  Alcotest.(check (list string)) "graph valid after sweep" [] (Validate.check g)

let test_stw_cleans_dangling_requesters () =
  let g = Graph.create () in
  let live = Builder.add_root g Label.Bottom [] in
  let junk = Builder.add g Label.If [] in
  Vertex.add_requester (Graph.vertex g live) (Some junk) ~demand:Demand.Eager ~key:live;
  let (_ : Stw.report) = Stw.collect g ~purge_tasks:(fun _ -> 0) in
  Alcotest.(check bool) "junk reclaimed" true (Vertex.free (Graph.vertex g junk));
  Alcotest.(check int) "dangling requester dropped" 0
    (List.length (Vertex.requested (Graph.vertex g live)))

(* A refcounting machine steps its shards like any other machine: each
   PE logs its count changes and the barrier applies them — every
   increment, then every decrement, then one purge of the tasks that
   address what was freed. After every step no live vertex may point at
   a free slot, no pending task may address a freed vertex, and the end
   state must not depend on how many domains the shards ran on. With no
   fault plane the shards run on the worker pool, so at 2 and 4 domains
   the logging happens on worker domains. *)
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
          if Dgr_task.Task.reduction_endpoint_exists freed r then
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
  Engine.dispose e;
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
    Alcotest.test_case "rc on_free callback" `Quick test_rc_on_free_callback;
    Alcotest.test_case "stw collects and purges" `Quick test_stw_collects_and_purges;
    Alcotest.test_case "stw cleans dangling requesters" `Quick
      test_stw_cleans_dangling_requesters;
    Alcotest.test_case "rc machine: no dangling slot or task, same bytes at 1/2/4 domains"
      `Quick test_rc_machine_safe_at_every_step;
  ]
