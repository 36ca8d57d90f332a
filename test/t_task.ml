(* Task model: routing, endpoints, plane selection, constructors. *)
open Dgr_graph
open Dgr_task
open Task

let test_exec_vertex () =
  Alcotest.(check (option int)) "request executes at dst" (Some 3)
    (exec_vertex (request ~src:1 3 Demand.Vital));
  Alcotest.(check (option int)) "respond executes at requester" (Some 1)
    (exec_vertex (respond ~src:3 ~key:3 (Some 1) (Label.V_int 7)));
  Alcotest.(check (option int)) "final respond goes to the controller" None
    (exec_vertex (respond ~src:3 ~key:3 None (Label.V_int 7)));
  Alcotest.(check (option int)) "cancel executes at dst" (Some 9)
    (exec_vertex (Reduction (Cancel { src = 2; dst = 9 })));
  Alcotest.(check (option int)) "mark executes at v" (Some 4)
    (exec_vertex (Marking (Mark1 { v = 4; par = Plane.Rootpar; ep = 0 })));
  Alcotest.(check (option int)) "return executes at the credited parent" (Some 6)
    (exec_vertex (Marking (Return { plane = Plane.MR; par = Plane.Parent 6; ep = 0 })));
  Alcotest.(check (option int)) "rootpar return goes to the controller" None
    (exec_vertex (Marking (Return { plane = Plane.MT; par = Plane.Rootpar; ep = 0 })))

let test_endpoints () =
  let sorted = List.sort compare in
  Alcotest.(check (list int)) "request endpoints" [ 1; 3 ]
    (sorted (reduction_endpoints (Request { src = Some 1; dst = 3; demand = Demand.Vital; key = 3 })));
  Alcotest.(check (list int)) "initial task endpoint" [ 3 ]
    (reduction_endpoints (Request { src = None; dst = 3; demand = Demand.Vital; key = 3 }));
  Alcotest.(check (list int)) "respond endpoints" [ 1; 3 ]
    (sorted
       (reduction_endpoints
          (Respond { src = 3; dst = Some 1; value = Label.V_nil; key = 3; demand = Demand.Vital })));
  Alcotest.(check (list int)) "final respond endpoint" [ 3 ]
    (reduction_endpoints
       (Respond { src = 3; dst = None; value = Label.V_nil; key = 3; demand = Demand.Vital }));
  Alcotest.(check (list int)) "cancel endpoints" [ 2; 9 ]
    (sorted (reduction_endpoints (Cancel { src = 2; dst = 9 })))

let test_planes () =
  Alcotest.(check bool) "mark1 -> MR" true
    (plane_of_mark (Mark1 { v = 0; par = Plane.Rootpar; ep = 0 }) = Plane.MR);
  Alcotest.(check bool) "mark2 -> MR" true
    (plane_of_mark (Mark2 { v = 0; par = Plane.Rootpar; prior = 3; ep = 0 }) = Plane.MR);
  Alcotest.(check bool) "mark3 -> MT" true
    (plane_of_mark (Mark3 { v = 0; par = Plane.Rootpar; ep = 0 }) = Plane.MT);
  Alcotest.(check bool) "return carries its plane" true
    (plane_of_mark (Return { plane = Plane.MT; par = Plane.Rootpar; ep = 0 }) = Plane.MT)

let test_predicates_and_pp () =
  let req = request 5 Demand.Eager in
  Alcotest.(check bool) "is_reduction" true (is_reduction req);
  Alcotest.(check bool) "not marking" false (is_marking req);
  Alcotest.(check string) "request pp" "request<-,v5>?[key=v5]" (to_string req);
  Alcotest.(check string) "respond pp" "respond<v5,v2>!=7[key=v5]"
    (to_string (respond ~src:5 ~key:5 (Some 2) (Label.V_int 7)));
  Alcotest.(check string) "mark2 pp" "mark2<v1 par=rootpar prio=3 w2>"
    (to_string (Marking (Mark2 { v = 1; par = Plane.Rootpar; prior = 3; ep = 2 })))

let test_request_default_key () =
  match request ~src:9 7 Demand.Vital with
  | Reduction (Request { key; src; _ }) ->
    Alcotest.(check int) "key defaults to dst" 7 key;
    Alcotest.(check (option int)) "src" (Some 9) src
  | _ -> Alcotest.fail "expected a request"

(* Every mark survives the trip to lanes and back: each constructor,
   both planes on a return, Rootpar and Parent, priors 1-3, and waves 0
   and 2^40. *)
let test_lane_roundtrip () =
  let pars = [ Plane.Rootpar; Plane.Parent 0; Plane.Parent 41 ] in
  let eps = [ 0; 1 lsl 40 ] in
  let marks =
    List.concat_map
      (fun par ->
        List.concat_map
          (fun ep ->
            [ Mark1 { v = 9; par; ep }; Mark3 { v = 0; par; ep } ]
            @ List.map (fun prior -> Mark2 { v = 7; par; prior; ep }) [ 1; 2; 3 ]
            @ List.map (fun plane -> Return { plane; par; ep }) [ Plane.MR; Plane.MT ])
          eps)
      pars
  in
  List.iter
    (fun m ->
      let v = lane_v m and par = lane_par m and meta = lane_meta m in
      let name = Format.asprintf "%a" pp_mark m in
      Alcotest.(check bool) (name ^ ": round-trips") true (mark_of_lanes v par meta = m);
      Alcotest.(check bool) (name ^ ": meta is never negative") true (meta >= 0);
      Alcotest.(check int) (name ^ ": wave") (mark_ep m) (meta_ep meta);
      Alcotest.(check bool) (name ^ ": plane") true (meta_plane meta = plane_of_mark m);
      Alcotest.(check int) (name ^ ": exec vid")
        (exec_vid (Marking m)) (lanes_exec_vid v par meta);
      Alcotest.(check bool) (name ^ ": trace kind") true
        (obs_kind_of_meta meta = obs_kind (Marking m)))
    marks;
  Alcotest.check_raises "a prior past 3 is refused"
    (Invalid_argument "Task.meta: prior 4 / wave 0 out of range") (fun () ->
      ignore (meta ~kind:kind_mark2 ~plane:Plane.MR ~prior:4 ~ep:0))

(* Every reduction shape: both demands, a request with no requester, a
   response to the controller, every [Label.value] (a [V_err]'s string
   beside the lanes). *)
let reduction_shapes ~a ~b =
  let values =
    Label.[ V_int 0; V_int (-7); V_int max_int; V_int min_int; V_bool true; V_bool false;
            V_nil; V_ref b; V_err "deadlock"; V_err "" ]
  in
  List.concat_map
    (fun demand ->
      [ Request { src = Some a; dst = b; demand; key = b };
        Request { src = None; dst = b; demand; key = a } ]
      @ List.concat_map
          (fun value ->
            [ Respond { src = b; dst = Some a; value; key = b; demand };
              Respond { src = b; dst = None; value; key = b; demand } ])
          values)
    [ Demand.Vital; Demand.Eager ]
  @ [ Cancel { src = a; dst = b }; Cancel { src = b; dst = a } ]

let lanes r = (red_head r, red_src r, red_dst r, red_key r, red_pay r, red_err r)

let test_reduction_lane_roundtrip () =
  List.iter
    (fun r ->
      let head, src, dst, key, pay, err = lanes r in
      let name = Format.asprintf "%a" pp_reduction r in
      Alcotest.(check bool) (name ^ ": round-trips") true
        (reduction_of_lanes head src dst key pay err = r);
      Alcotest.(check bool) (name ^ ": the head is negative") true (head < 0);
      Alcotest.(check int) (name ^ ": exec vid") (exec_vid (Reduction r)) dst;
      Alcotest.(check bool) (name ^ ": trace kind") true
        (obs_kind_of_head head = obs_kind (Reduction r));
      let row = [| src; dst; head; key; pay; 0; -1 |] in
      Alcotest.(check bool) (name ^ ": frame row") true (reduction_of_row row 0 err = r))
    (reduction_shapes ~a:3 ~b:8)

(* [stale_lanes] on a reduction's endpoint lanes agrees with [stale] on
   its view, before and after a release, for a send generation from
   before it, after it, and [no_gen]. *)
let test_stale_lanes_agree () =
  let g = Graph.create () in
  let a = Vertex.id (Graph.alloc g (Label.Int 1)) in
  let b = Vertex.id (Graph.alloc g (Label.Int 2)) in
  let c = Vertex.id (Graph.alloc g (Label.Int 3)) in
  let before = Graph.releases g in
  Graph.release g b;
  let after = Graph.releases g in
  List.iter
    (fun (x, y) ->
      List.iter
        (fun r ->
          List.iter
            (fun gen ->
              let name = Format.asprintf "%a gen %d" pp_reduction r gen in
              Alcotest.(check bool) name (stale g gen r)
                (stale_lanes g gen (red_src r) (red_dst r)))
            [ no_gen; before; after ])
        (reduction_shapes ~a:x ~b:y))
    [ (a, b); (b, a); (a, c) ];
  Alcotest.(check bool) "a released endpoint is stale" true
    (stale g before (Cancel { src = a; dst = b }));
  Alcotest.(check bool) "live endpoints are not" false
    (stale g before (Cancel { src = a; dst = c }))

(* The swap-remove the synchronous engine's Lifo and Random orders take
   by, across a wrapped ring. *)
let test_mark_ring_take_with () =
  let r = Mark_ring.create () in
  let ids () = List.map lane_v (Mark_ring.to_list r) in
  List.iter (fun v -> Mark_ring.push r v (-1) 0) [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  for _ = 1 to 4 do
    ignore (Mark_ring.pop_with r (fun _ _ _ -> ()) : bool)
  done;
  List.iter (fun v -> Mark_ring.push r v (-1) 0) [ 10; 20; 30; 40 ];
  let took = ref (-1) in
  Mark_ring.take_with r 5 (fun v _ _ -> took := v);
  Alcotest.(check int) "removed" 20 !took;
  Alcotest.(check (list int)) "newest moved in" [ 4; 5; 6; 7; 10; 40; 30 ] (ids ());
  Mark_ring.take_with r 6 (fun v _ _ -> took := v);
  Alcotest.(check int) "the newest taken in place" 30 !took;
  Alcotest.check_raises "an index past the end is refused"
    (Invalid_argument "Mark_ring.take_with: index 6 of 6") (fun () ->
      Mark_ring.take_with r 6 (fun _ _ _ -> ()))

let suite =
  [
    Alcotest.test_case "mark ring take_with" `Quick test_mark_ring_take_with;
    Alcotest.test_case "mark lanes round-trip" `Quick test_lane_roundtrip;
    Alcotest.test_case "reduction lanes round-trip" `Quick test_reduction_lane_roundtrip;
    Alcotest.test_case "stale on lanes agrees with stale" `Quick test_stale_lanes_agree;
    Alcotest.test_case "exec_vertex routing" `Quick test_exec_vertex;
    Alcotest.test_case "reduction endpoints" `Quick test_endpoints;
    Alcotest.test_case "mark planes" `Quick test_planes;
    Alcotest.test_case "predicates and printing" `Quick test_predicates_and_pp;
    Alcotest.test_case "request default key" `Quick test_request_default_key;
  ]
