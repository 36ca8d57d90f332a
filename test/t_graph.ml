(* Graph substrate: vertices, edge-set bookkeeping, allocation/free list,
   capacity, builders, snapshots, structural validation, DOT export. *)
open Dgr_graph
open Dgr_util

let test_vertex_connect_disconnect () =
  let v = Vertex.create 0 ~pe:0 (Label.Prim Label.Add) in
  Vertex.connect v 1;
  Vertex.connect v 2;
  Vertex.connect v 1;
  Alcotest.(check (list int)) "multiset args" [ 1; 2; 1 ] (Vertex.args v);
  Vertex.disconnect v 1;
  Alcotest.(check (list int)) "one occurrence removed" [ 2; 1 ] (Vertex.args v);
  Vertex.disconnect v 99;
  Alcotest.(check (list int)) "absent disconnect is a no-op" [ 2; 1 ] (Vertex.args v)

(* Bulk appends: [connect] must keep argument order stable however many
   edges pile up (the arg list is stored reversed internally, so this is
   the test that pins the normalization). *)
let test_vertex_bulk_connect_order () =
  let v = Vertex.create 0 ~pe:0 (Label.Prim Label.Add) in
  let expected = List.init 1000 (fun i -> i + 1) in
  List.iter (Vertex.connect v) expected;
  Alcotest.(check (list int)) "1000 appends in order" expected (Vertex.args v);
  Vertex.disconnect v 500;
  Alcotest.(check (list int)) "interior removal keeps order"
    (List.filter (fun i -> i <> 500) expected)
    (Vertex.args v)

let test_vertex_request_tracking () =
  let v = Vertex.create 0 ~pe:0 Label.If in
  Vertex.connect v 1;
  Vertex.connect v 2;
  Vertex.request_arg v 1 Demand.Eager;
  Alcotest.(check int) "eager request-type" 2 (Vertex.request_type v 1);
  Vertex.request_arg v 1 Demand.Vital;
  Alcotest.(check int) "upgraded to vital" 3 (Vertex.request_type v 1);
  Vertex.request_arg v 1 Demand.Eager;
  Alcotest.(check int) "never downgrades" 3 (Vertex.request_type v 1);
  Alcotest.(check int) "unrequested is reserve" 1 (Vertex.request_type v 2);
  Alcotest.(check (list int)) "unrequested args" [ 2 ] (Vertex.unrequested_args v);
  Vertex.drop_request v 1;
  Alcotest.(check int) "dereferenced back to reserve" 1 (Vertex.request_type v 1)

let test_vertex_disconnect_cleans_requests () =
  let v = Vertex.create 0 ~pe:0 Label.If in
  Vertex.connect v 1;
  Vertex.connect v 1;
  Vertex.request_arg v 1 Demand.Vital;
  Vertex.disconnect v 1;
  (* one occurrence remains: the request record must survive *)
  Alcotest.(check int) "still vital while an occurrence remains" 3 (Vertex.request_type v 1);
  Vertex.disconnect v 1;
  Alcotest.(check int) "request dropped with last occurrence" 1 (Vertex.request_type v 1)

let test_vertex_requesters () =
  let v = Vertex.create 5 ~pe:0 Label.Bottom in
  Vertex.add_requester v (Some 1) ~demand:Demand.Eager ~key:5;
  Vertex.add_requester v (Some 1) ~demand:Demand.Eager ~key:5;
  Alcotest.(check int) "deduplicated" 1 (List.length (Vertex.requested v));
  Vertex.add_requester v (Some 1) ~demand:Demand.Vital ~key:5;
  (match (Vertex.requested v) with
  | [ e ] -> Alcotest.(check bool) "upgraded" true (Demand.equal e.Vertex.demand Demand.Vital)
  | _ -> Alcotest.fail "expected a single entry");
  Vertex.add_requester v (Some 1) ~demand:Demand.Eager ~key:7;
  Alcotest.(check int) "same requester, second key" 2 (List.length (Vertex.requested v));
  Alcotest.(check bool) "has_request_entry" true (Vertex.has_request_entry v (Some 1) 7);
  Alcotest.(check bool) "missing entry" false (Vertex.has_request_entry v (Some 2) 7);
  Vertex.add_requester v None ~demand:Demand.Vital ~key:5;
  Alcotest.(check bool) "external requester" true (Vertex.has_requester v None);
  Vertex.remove_who v 1;
  Alcotest.(check int) "all entries of requester removed" 1 (List.length (Vertex.requested v))

let test_vertex_recv () =
  let v = Vertex.create 0 ~pe:0 (Label.Prim Label.Add) in
  Vertex.record_value v ~from:3 (Label.V_int 7);
  Vertex.record_value v ~from:3 (Label.V_int 9);
  Alcotest.(check bool) "first value wins (dedup)" true
    (Vertex.recv_value v (Vertex.recv_index v 3) = Label.V_int 7);
  Alcotest.(check int) "absent child" (-1) (Vertex.recv_index v 4);
  Vertex.clear_reduction_state v;
  Alcotest.(check int) "cleared" (-1) (Vertex.recv_index v 3)

let test_graph_alloc_release_reuse () =
  let g = Graph.create ~num_pes:3 () in
  let a = Graph.alloc g (Label.Int 1) in
  let b = Graph.alloc g (Label.Int 2) in
  Alcotest.(check int) "round-robin pe 0" 0 (Vertex.pe a);
  Alcotest.(check int) "round-robin pe 1" 1 (Vertex.pe b);
  Graph.release g (Vertex.id a);
  Alcotest.(check int) "free count" 1 (Graph.free_count g);
  Alcotest.(check bool) "flagged free" true (Vertex.free (Graph.vertex g (Vertex.id a)));
  let c = Graph.alloc g (Label.Int 3) in
  Alcotest.(check int) "slot reused" (Vertex.id a) (Vertex.id c);
  Alcotest.(check bool) "live again" false (Vertex.free c);
  Alcotest.check_raises "double release"
    (Invalid_argument (Printf.sprintf "Graph.release: v%d already free" (Vertex.id b)))
    (fun () ->
      Graph.release g (Vertex.id b);
      Graph.release g (Vertex.id b))

let test_graph_capacity () =
  let g = Graph.create () in
  let a = Graph.alloc g (Label.Int 1) in
  Graph.set_capacity g (Some 2);
  let _b = Graph.alloc g (Label.Int 2) in
  Alcotest.(check int) "headroom exhausted" 0 (Graph.headroom g);
  Alcotest.check_raises "out of vertices" Graph.Out_of_vertices (fun () ->
      ignore (Graph.alloc g (Label.Int 3)));
  Graph.release g (Vertex.id a);
  Alcotest.(check int) "headroom via free list" 1 (Graph.headroom g);
  let c = Graph.alloc g (Label.Int 3) in
  Alcotest.(check int) "alloc from free list under cap" (Vertex.id a) (Vertex.id c);
  Alcotest.check_raises "cannot shrink below table"
    (Invalid_argument "Graph.set_capacity: below current table size") (fun () ->
      Graph.set_capacity g (Some 1))

let test_graph_preallocate () =
  let g = Graph.create () in
  Graph.preallocate g 5;
  Alcotest.(check int) "free pool" 5 (Graph.free_count g);
  Alcotest.(check int) "no live" 0 (Graph.live_count g);
  let v = Graph.alloc g Label.Nil in
  Alcotest.(check bool) "drawn from pool" true ((Vertex.id v) < 5);
  Alcotest.(check int) "pool shrank" 4 (Graph.free_count g)

let test_graph_root () =
  let g = Graph.create () in
  Alcotest.(check bool) "no root" false (Graph.has_root g);
  Alcotest.check_raises "root unset" (Invalid_argument "Graph.root: no root set") (fun () ->
      ignore (Graph.root g));
  let r = Builder.add_root g (Label.Int 1) [] in
  Alcotest.(check int) "root set" r (Graph.root g)

let test_builder_structures () =
  let g = Graph.create () in
  let head = Builder.chain g 5 in
  Alcotest.(check int) "chain size" 5 (Graph.live_count g);
  let rec depth v n = match Graph.children g v with [ c ] -> depth c (n + 1) | _ -> n in
  Alcotest.(check int) "chain depth" 4 (depth head 0);
  let lst = Builder.int_list g [ 1; 2; 3 ] in
  Alcotest.(check bool) "cons head" true ((Vertex.label (Graph.vertex g lst)) = Label.Cons);
  let ring = Builder.cycle g 4 in
  let rec follow v n = if n = 0 then v else follow (List.hd (Graph.children g v)) (n - 1) in
  Alcotest.(check int) "ring closes" ring (follow ring 4)

let test_builder_random_valid () =
  let rng = Rng.create 11 in
  for seed = 0 to 9 do
    let spec =
      {
        Builder.live = 20 + Rng.int rng 60;
        garbage = Rng.int rng 30;
        free_pool = Rng.int rng 8;
        avg_degree = 1.0 +. Rng.float rng 2.0;
        cycle_bias = Rng.float rng 0.5;
      }
    in
    let g = Builder.random (Rng.create seed) spec in
    Alcotest.(check (list string)) "random graph valid" [] (Validate.check g);
    let g2 = Builder.random_with_requests (Rng.create seed) spec in
    Alcotest.(check (list string)) "random request graph valid" [] (Validate.check g2)
  done

let test_validate_detects_corruption () =
  let g = Graph.create () in
  let a = Builder.add_root g Label.If [] in
  let b = Builder.add g (Label.Int 1) [] in
  Vertex.connect (Graph.vertex g a) b;
  Graph.release g b;
  (* live -> free edge *)
  Alcotest.(check bool) "corruption reported" true (Validate.check g <> []);
  Alcotest.check_raises "check_exn raises"
    (Failure
       (Printf.sprintf "Validate.check failed:\nv%d: live vertex points to free vertex v%d" a b))
    (fun () -> Validate.check_exn g)

let test_validate_req_subset () =
  let g = Graph.create () in
  let a = Builder.add_root g Label.If [] in
  Vertex.request_arg (Graph.vertex g a) 0 Demand.Vital;
  (* req_v not a subset of args: request_arg records the demand without
     checking args membership *)
  Vertex.request_arg (Graph.vertex g a) 42 Demand.Vital;
  Alcotest.(check bool) "req_v ⊄ args reported" true (Validate.check g <> [])

let test_snapshot_immutable () =
  let g = Graph.create () in
  let a = Builder.add_root g Label.If [] in
  let b = Builder.add g (Label.Int 1) [] in
  Vertex.connect (Graph.vertex g a) b;
  let snap = Snapshot.take g in
  Vertex.disconnect (Graph.vertex g a) b;
  Alcotest.(check (list int)) "snapshot keeps the old edge" [ b ]
    (Snapshot.vertex snap a).Snapshot.args;
  Alcotest.(check int) "size" 2 (Snapshot.size snap);
  Alcotest.(check int) "live" 2 (List.length (Snapshot.live snap))

(* A vertex's plane through one marking-tree life: unmarked, transient
   under its parent with one child charged, marked on the child's
   return, and pristine again once the slot is freed. *)
let test_plane_lifecycle () =
  let v = Vertex.create 0 ~pe:0 Label.If in
  Vertex.connect v 1;
  let nop _ _ _ = () in
  Alcotest.(check bool) "starts unmarked" true
    (Vertex.unmarked v Plane.MR && Vertex.unmarked v Plane.MT);
  Vertex.mark_tree v Plane.MR ~par:7 ~prior:3 ~metas:[| 0; 1; 2; 3 |] ~ret:0 ~emit:nop;
  Alcotest.(check bool) "transient" true (Vertex.transient v Plane.MR);
  Alcotest.(check (list int)) "cnt, par, prior" [ 1; 7; 3 ]
    [ Vertex.cnt v Plane.MR; Vertex.par_vid v Plane.MR; Vertex.prior v Plane.MR ];
  Alcotest.(check bool) "the other plane is untouched" true (Vertex.unmarked v Plane.MT);
  Vertex.return_tree v Plane.MR ~ret:0 ~emit:nop;
  Alcotest.(check bool) "marked" true (Vertex.marked v Plane.MR && Vertex.cnt v Plane.MR = 0);
  Vertex.charge v Plane.MR;
  Vertex.reset_for_free v;
  Alcotest.(check bool) "reset clears colour, count and priority" true
    (Vertex.unmarked v Plane.MR
    && Vertex.cnt v Plane.MR = 0
    && Vertex.prior v Plane.MR = 0
    && Vertex.par_vid v Plane.MR = -1)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let test_dot_export () =
  let g = Graph.create () in
  let b = Builder.add g (Label.Int 1) [] in
  let a = Builder.add_root g Label.If [ b ] in
  Vertex.request_arg (Graph.vertex g a) b Demand.Vital;
  let dot = Dot.to_string g in
  Alcotest.(check bool) "digraph header" true (contains ~needle:"digraph " dot);
  Alcotest.(check bool) "has vital annotation" true (contains ~needle:"*v" dot);
  Alcotest.(check bool) "root doublecircle" true (contains ~needle:"doublecircle" dot)

let suite =
  [
    Alcotest.test_case "vertex connect/disconnect" `Quick test_vertex_connect_disconnect;
    Alcotest.test_case "bulk connect preserves order" `Quick
      test_vertex_bulk_connect_order;
    Alcotest.test_case "vertex request tracking" `Quick test_vertex_request_tracking;
    Alcotest.test_case "disconnect cleans requests" `Quick test_vertex_disconnect_cleans_requests;
    Alcotest.test_case "requester entries" `Quick test_vertex_requesters;
    Alcotest.test_case "received values" `Quick test_vertex_recv;
    Alcotest.test_case "alloc / release / slot reuse" `Quick test_graph_alloc_release_reuse;
    Alcotest.test_case "capacity and headroom" `Quick test_graph_capacity;
    Alcotest.test_case "preallocate" `Quick test_graph_preallocate;
    Alcotest.test_case "root management" `Quick test_graph_root;
    Alcotest.test_case "builder structures" `Quick test_builder_structures;
    Alcotest.test_case "random builders are valid" `Quick test_builder_random_valid;
    Alcotest.test_case "validate detects corruption" `Quick test_validate_detects_corruption;
    Alcotest.test_case "validate req subset" `Quick test_validate_req_subset;
    Alcotest.test_case "snapshots are immutable" `Quick test_snapshot_immutable;
    Alcotest.test_case "plane lifecycle" `Quick test_plane_lifecycle;
    Alcotest.test_case "dot export" `Quick test_dot_export;
  ]
