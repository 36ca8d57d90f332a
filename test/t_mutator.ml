(* Cooperating mutator primitives (Fig 4-2): mutations concurrent with a
   marking run must preserve the marking invariants and never cause a
   reachable vertex to be missed. *)
open Dgr_graph
open Dgr_core
open Dgr_util

(* Build a chain a -> b -> c rooted at a, start basic marking, and stop
   after [steps] task executions so the graph is mid-mark. *)
let partial_mark g ~steps =
  let engine = Sync_engine.create g in
  let run = Sync_engine.start engine Run.Basic ~seeds:[ Graph.root g ] in
  let executed = ref 0 in
  while !executed < steps && Sync_engine.step engine do
    incr executed
  done;
  (engine, run)

let drain_and_check engine run =
  let (_ : int) = Sync_engine.drain engine in
  Alcotest.(check bool) "run finished" true run.Run.finished;
  let g = Sync_engine.graph engine in
  let snap = Snapshot.take g in
  let reachable = Dgr_analysis.Reach.reachable_from snap [ Graph.root g ] in
  Vid.Set.iter
    (fun v ->
      if not (Vertex.marked (Graph.vertex g v) Plane.MR) then
        Alcotest.failf "reachable v%d missed by marking" v)
    reachable

let test_paper_race () =
  (* The §4.2 motivating race: a -> b -> c; marking has passed a; then
     add-reference(a,b,c) and delete-reference(b,c) leave c reachable only
     from a. Cooperation must still mark c. *)
  let g = Graph.create () in
  let c = Builder.add g (Label.Int 1) [] in
  let b = Builder.add g Label.Ind [ c ] in
  let a = Builder.add_root g Label.Ind [ b ] in
  let engine, run = partial_mark g ~steps:1 in
  (* After one step the root a is transient and a mark task for b is
     pending; c is untouched. *)
  Alcotest.(check bool) "a transient" true (Vertex.transient (Graph.vertex g a) Plane.MR);
  let mut = Sync_engine.mutator engine in
  Mutator.add_reference mut ~a ~b ~c;
  Mutator.delete_reference mut ~a:b ~b:c;
  Invariants.check_exn run ~pending:(Sync_engine.pending engine);
  drain_and_check engine run

let test_paper_race_after_marked () =
  (* Same shape, but the mutation happens when a is already marked and b
     is transient: the witnessed "execute mark1(c,b)" branch. *)
  let g = Graph.create () in
  let c = Builder.add g (Label.Int 1) [] in
  let slow = Builder.chain g 6 in
  let b = Builder.add g Label.If [ c; slow ] in
  let a = Builder.add_root g Label.Ind [ b ] in
  let engine, run = partial_mark g ~steps:3 in
  ignore a;
  (* Drive until a is marked but b still transient (b waits on the slow
     chain). *)
  let steps = ref 0 in
  while
    (not (Vertex.marked (Graph.vertex g a) Plane.MR))
    && !steps < 100
    && Sync_engine.step engine
  do
    incr steps
  done;
  if Vertex.marked (Graph.vertex g a) Plane.MR && Vertex.transient (Graph.vertex g b) Plane.MR
  then begin
    let fresh = Builder.add g (Label.Int 9) [] in
    Vertex.connect (Graph.vertex g b) fresh;
    (* fresh is a child of b; now reference it from a *)
    let mut = Sync_engine.mutator engine in
    Mutator.add_reference mut ~a ~b ~c:fresh;
    Invariants.check_exn run ~pending:(Sync_engine.pending engine)
  end;
  drain_and_check engine run

let test_add_reference_validates_witness () =
  let g = Graph.create () in
  let c = Builder.add g (Label.Int 1) [] in
  let b = Builder.add g Label.Ind [ c ] in
  let a = Builder.add_root g Label.Ind [ b ] in
  let mut = Mutator.create ~spawn:(fun _ _ _ -> ()) g in
  Alcotest.check_raises "b must be a child of a"
    (Invalid_argument
       (Printf.sprintf "Mutator.add_reference: witness v%d is not a child of v%d" c a))
    (fun () -> Mutator.add_reference mut ~a ~b:c ~c:b);
  Alcotest.check_raises "c must be a child of b"
    (Invalid_argument
       (Printf.sprintf "Mutator.add_reference: v%d is not a child of witness v%d" a b))
    (fun () -> Mutator.add_reference mut ~a ~b ~c:a)

let test_expand_node_marked_parent () =
  (* Splicing a fresh subgraph below a marked vertex must mark the whole
     subgraph (paper: "if marked(a) then mark(g)"). *)
  let g = Graph.create () in
  let leaf = Builder.add g (Label.Int 5) [] in
  let a = Builder.add_root g Label.Ind [ leaf ] in
  let engine, run = partial_mark g ~steps:10_000 in
  Alcotest.(check bool) "fully marked" true run.Run.finished;
  (* a marked; now expand: fresh subgraph referencing the old child *)
  let mut = Sync_engine.mutator engine in
  Mutator.set_active mut [ run ];
  let inner = Graph.alloc g (Label.Prim Label.Neg) in
  Mutator.connect_fresh mut ~parent:(Vertex.id inner) ~child:leaf;
  Mutator.expand_node mut ~a ~entry:(Vertex.id inner);
  Alcotest.(check bool) "subgraph closure-marked" true (Vertex.marked inner Plane.MR);
  Alcotest.(check (list int)) "a rewired" [ (Vertex.id inner) ] (Vertex.args (Graph.vertex g a));
  Invariants.check_exn run ~pending:(Sync_engine.pending engine)

(* Tree-closure cooperation allocates nothing per vertex: a new edge
   from an M_R-marked parent onto a 2,000-vertex unmarked chain marks the
   chain synchronously, each visit a [Vertex.mark_closure] slot loop with
   no callback per traced child. The bound, one word per closure-marked
   vertex, fails on a single heap block per visit. *)
let test_closure_alloc () =
  let g = Graph.create () in
  let a = Builder.add_root g Label.Ind [] in
  let engine = Sync_engine.create g in
  let run = Sync_engine.start engine Run.Priority ~seeds:[ a ] in
  let (_ : int) = Sync_engine.drain engine in
  Alcotest.(check bool) "parent M_R-marked" true (Vertex.marked (Graph.vertex g a) Plane.MR);
  let head = Builder.chain g 2_000 in
  let mut = Sync_engine.mutator engine in
  Mutator.set_active mut [ run ];
  let closed0 = run.Run.coop_closure in
  let w0 = Gc.minor_words () in
  Mutator.add_edge mut ~a ~c:head;
  let words = Gc.minor_words () -. w0 in
  let closed = run.Run.coop_closure - closed0 in
  Alcotest.(check int) "the whole chain closure-marked" 2_000 closed;
  let per_vertex = words /. float_of_int closed in
  if per_vertex > 1.0 then
    Alcotest.failf "closure cooperation allocates %.2f minor words per marked vertex (bound 1)"
      per_vertex

let test_expand_node_unmarked_parent () =
  let g = Graph.create () in
  let leaf = Builder.add g (Label.Int 5) [] in
  let a = Builder.add_root g Label.Ind [ leaf ] in
  let mut = Mutator.create ~spawn:(fun _ _ _ -> ()) g in
  let inner = Graph.alloc g (Label.Prim Label.Neg) in
  Mutator.connect_fresh mut ~parent:(Vertex.id inner) ~child:leaf;
  Mutator.expand_node mut ~a ~entry:(Vertex.id inner);
  Alcotest.(check bool) "no marking without active runs" true (Vertex.unmarked inner Plane.MR)

let test_record_request_cooperates_once () =
  (* Re-recording the same request entry must not charge the marking tree
     again (the M_T-termination regression). *)
  let g = Graph.create () in
  let y = Builder.add g (Label.Int 1) [] in
  let x = Builder.add_root g Label.Bottom [ y ] in
  let engine = Sync_engine.create g in
  let run = Sync_engine.start engine Run.Tasks ~seeds:[ x ] in
  let (_ : bool) = Sync_engine.step engine in
  (* x is now transient on the MT plane *)
  Alcotest.(check bool) "x transient (MT)" true (Vertex.transient (Graph.vertex g x) Plane.MT);
  let mut = Sync_engine.mutator engine in
  let cnt_before = Vertex.cnt (Graph.vertex g x) Plane.MT in
  Mutator.record_request mut ~at:x ~who:y ~demand:Demand.Vital ~key:x;
  let cnt_after_first = Vertex.cnt (Graph.vertex g x) Plane.MT in
  Alcotest.(check int) "first recording charges once" (cnt_before + 1) cnt_after_first;
  Mutator.record_request mut ~at:x ~who:y ~demand:Demand.Vital ~key:x;
  Alcotest.(check int) "re-recording does not charge"
    cnt_after_first
    (Vertex.cnt (Graph.vertex g x) Plane.MT);
  let (_ : int) = Sync_engine.drain engine in
  Alcotest.(check bool) "M_T terminates" true run.Run.finished

let test_drop_request_restores_mt_edge () =
  (* Dereferencing (drop req-args, keep the arg) re-adds the edge to M_T's
     relation; cooperation must cover it when the parent is marked. *)
  let g = Graph.create () in
  let y = Builder.add g (Label.Int 1) [] in
  let x = Builder.add_root g Label.If [ y ] in
  Vertex.request_arg (Graph.vertex g x) y Demand.Eager;
  let engine = Sync_engine.create g in
  let run = Sync_engine.start engine Run.Tasks ~seeds:[ x ] in
  let (_ : int) = Sync_engine.drain engine in
  Alcotest.(check bool) "x marked, y skipped (req-arg edge)" true
    (Vertex.marked (Graph.vertex g x) Plane.MT && Vertex.unmarked (Graph.vertex g y) Plane.MT);
  let mut = Sync_engine.mutator engine in
  Mutator.set_active mut [ run ];
  Mutator.drop_request_child mut ~v:x ~c:y;
  Alcotest.(check bool) "y closure-marked on dereference" true
    (Vertex.marked (Graph.vertex g y) Plane.MT)

let test_hooks_fire () =
  let g = Graph.create () in
  let b = Builder.add g (Label.Int 1) [] in
  let c = Builder.add g (Label.Int 2) [] in
  let a = Builder.add_root g Label.If [ b ] in
  Vertex.connect (Graph.vertex g b) c;
  let log = ref [] in
  let mut =
    Mutator.create
      ~on_connect:(fun p ch -> log := ("connect", p, ch) :: !log)
      ~on_disconnect:(fun p ch -> log := ("disconnect", p, ch) :: !log)
      ~spawn:(fun _ _ _ -> ()) g
  in
  Mutator.add_reference mut ~a ~b ~c;
  Mutator.delete_reference mut ~a ~b;
  Alcotest.(check bool) "hooks observed both edits" true
    (List.mem ("connect", a, c) !log && List.mem ("disconnect", a, b) !log)

let test_interleaved_random_mutations () =
  (* Random mutations interleaved with basic marking: invariants hold at
     every step, and everything reachable at the end is marked. *)
  let rng = Rng.create 4242 in
  for seed = 0 to 14 do
    let spec =
      {
        Builder.live = 25 + Rng.int rng 50;
        garbage = Rng.int rng 20;
        free_pool = 30;
        avg_degree = 1.5 +. Rng.float rng 1.5;
        cycle_bias = Rng.float rng 0.4;
      }
    in
    let g = Builder.random (Rng.create (seed * 131)) spec in
    let engine = Sync_engine.create ~order:(Sync_engine.Random (Rng.split rng)) g in
    let run = Sync_engine.start engine Run.Basic ~seeds:[ Graph.root g ] in
    let mut = Sync_engine.mutator engine in
    let mutate _ =
      if Rng.int rng 3 = 0 then begin
        (* pick random mutation on live vertices *)
        let live = Graph.live_vids g in
        let pick () = Rng.choose_list rng live in
        match Rng.int rng 3 with
        | 0 -> (
          (* add-reference via a random witness path a -> b -> c *)
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
          (* expand-node with a one-vertex subgraph *)
          let a = pick () in
          if Graph.headroom g > 2 then begin
            let inner = Graph.alloc g Label.Ind in
            List.iter
              (fun old -> Mutator.connect_fresh mut ~parent:(Vertex.id inner) ~child:old)
              (Graph.children g a);
            Mutator.expand_node mut ~a ~entry:(Vertex.id inner)
          end
      end;
      Invariants.check_exn run ~pending:(Sync_engine.pending engine)
    in
    let (_ : int) = Sync_engine.drain ~interleave:mutate engine in
    Alcotest.(check bool) (Printf.sprintf "finished (seed %d)" seed) true run.Run.finished;
    (* Liveness: everything now reachable is marked (Lemma 2 under the
       cooperating mutator). *)
    let snap = Snapshot.take g in
    let reachable = Dgr_analysis.Reach.reachable_from snap [ Graph.root g ] in
    Vid.Set.iter
      (fun v ->
        if not (Vertex.marked (Graph.vertex g v) Plane.MR) then
          Alcotest.failf "seed %d: reachable v%d missed" seed v)
      reachable
  done

let suite =
  [
    Alcotest.test_case "the §4.2 race is covered" `Quick test_paper_race;
    Alcotest.test_case "witnessed execute branch" `Quick test_paper_race_after_marked;
    Alcotest.test_case "add_reference validates adjacency" `Quick
      test_add_reference_validates_witness;
    Alcotest.test_case "expand-node under a marked parent" `Quick
      test_expand_node_marked_parent;
    Alcotest.test_case "closure cooperation allocates nothing per vertex" `Quick
      test_closure_alloc;
    Alcotest.test_case "expand-node with no active runs" `Quick
      test_expand_node_unmarked_parent;
    Alcotest.test_case "record_request charges once" `Quick test_record_request_cooperates_once;
    Alcotest.test_case "dereference restores the M_T edge" `Quick
      test_drop_request_restores_mt_edge;
    Alcotest.test_case "connect/disconnect hooks" `Quick test_hooks_fire;
    Alcotest.test_case "random mutations keep invariants" `Quick
      test_interleaved_random_mutations;
  ]
