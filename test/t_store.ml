(* The struct-of-arrays vertex store, tested differentially: a randomized
   mutation schedule runs against both the real column store and a plain
   record-and-list oracle, and the two must render identical snapshots.
   Plus units for the row-recycling free list (capacities survive a
   release/alloc round trip), headroom growth, and the normalized-prefix
   bounds contract of the flat arg rows. *)
open Dgr_graph

let qtest = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- *)
(* Record-store oracle: every edge set as an append-order list. The
   store's list views are newest-first, so renders reverse these. *)

type ovx = {
  mutable o_label : Label.t;
  mutable o_free : bool;
  mutable o_args : Vid.t list;
  mutable o_reqv : Vid.t list;
  mutable o_reqe : Vid.t list;
  mutable o_rq : (int * int * Vid.t) list;  (* who (-1 = None), demand code, key *)
  mutable o_recv : (Vid.t * Label.value) list;
}

let o_create label =
  {
    o_label = label;
    o_free = false;
    o_args = [];
    o_reqv = [];
    o_reqe = [];
    o_rq = [];
    o_recv = [];
  }

let rec remove_first xs c =
  match xs with
  | [] -> []
  | x :: rest -> if Vid.equal x c then rest else x :: remove_first rest c

let o_connect o c = o.o_args <- o.o_args @ [ c ]

let o_disconnect o c =
  o.o_args <- remove_first o.o_args c;
  (* req-args stay subsets of args: the request record dies with the
     last occurrence *)
  if not (List.mem c o.o_args) then begin
    o.o_reqv <- List.filter (fun x -> not (Vid.equal x c)) o.o_reqv;
    o.o_reqe <- List.filter (fun x -> not (Vid.equal x c)) o.o_reqe
  end

let o_request o c demand =
  let in_v = List.mem c o.o_reqv and in_e = List.mem c o.o_reqe in
  match demand with
  | Demand.Vital ->
    if not in_v then begin
      o.o_reqv <- o.o_reqv @ [ c ];
      if in_e then o.o_reqe <- List.filter (fun x -> not (Vid.equal x c)) o.o_reqe
    end
  | Demand.Eager -> if (not in_v) && not in_e then o.o_reqe <- o.o_reqe @ [ c ]

let o_drop_request o c =
  o.o_reqv <- List.filter (fun x -> not (Vid.equal x c)) o.o_reqv;
  o.o_reqe <- List.filter (fun x -> not (Vid.equal x c)) o.o_reqe

let o_add_requester o w d k =
  if List.exists (fun (w', _, k') -> w' = w && Vid.equal k' k) o.o_rq then
    o.o_rq <-
      List.map
        (fun (w', d', k') ->
          if w' = w && Vid.equal k' k && d = 1 then (w', 1, k') else (w', d', k'))
        o.o_rq
  else o.o_rq <- o.o_rq @ [ (w, d, k) ]

let o_remove_requester o w = o.o_rq <- List.filter (fun (w', _, _) -> w' <> w) o.o_rq

let o_record_value o from value =
  if not (List.mem_assoc from o.o_recv) then o.o_recv <- o.o_recv @ [ (from, value) ]

let o_release o =
  o.o_free <- true;
  o.o_args <- [];
  o.o_reqv <- [];
  o.o_reqe <- [];
  o.o_rq <- [];
  o.o_recv <- []

(* ---------------------------------------------------------------- *)
(* Rendering. Both sides print the same shape; free slots render as a
   bare marker (a released slot's residual label is representation
   detail, not semantics). *)

let render_list b xs pp =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ';';
      pp x)
    xs;
  Buffer.add_char b ']'

let render_side b ~vid ~free ~label ~args ~reqv ~reqe ~rq ~recv =
  if free then Printf.bprintf b "v%d free\n" vid
  else begin
    Printf.bprintf b "v%d %s args=" vid (Label.to_string label);
    render_list b args (Printf.bprintf b "%d");
    Buffer.add_string b " reqv=";
    render_list b reqv (Printf.bprintf b "%d");
    Buffer.add_string b " reqe=";
    render_list b reqe (Printf.bprintf b "%d");
    Buffer.add_string b " rq=";
    render_list b rq (fun (w, d, k) -> Printf.bprintf b "(%d,%d,%d)" w d k);
    Buffer.add_string b " recv=";
    render_list b recv (fun (f, v) ->
        Printf.bprintf b "(%d,%s)" f
          (match v with
          | Label.V_int n -> string_of_int n
          | Label.V_bool x -> string_of_bool x
          | Label.V_nil -> "nil"
          | Label.V_ref r -> Printf.sprintf "ref%d" r
          | Label.V_err e -> e));
    Buffer.add_char b '\n'
  end

(* The real side renders from a [Snapshot] (the tentpole's contract is
   snapshot-digest equality), except [recv], which snapshots don't
   carry and is read straight off the store. *)
let digest_graph g vids =
  let s = Snapshot.take g in
  let b = Buffer.create 256 in
  List.iter
    (fun vid ->
      let sv = Snapshot.vertex s vid in
      let vx = Graph.vertex g vid in
      render_side b ~vid ~free:sv.Snapshot.free ~label:sv.Snapshot.label
        ~args:sv.Snapshot.args ~reqv:sv.Snapshot.req_v ~reqe:sv.Snapshot.req_e
        ~rq:
          (List.map
             (fun e ->
               ( (match e.Vertex.who with None -> -1 | Some w -> w),
                 (match e.Vertex.demand with Demand.Eager -> 0 | Demand.Vital -> 1),
                 e.Vertex.key ))
             sv.Snapshot.requested)
        ~recv:(Vertex.recv vx))
    vids;
  Buffer.contents b

let digest_oracle tbl vids =
  let b = Buffer.create 256 in
  List.iter
    (fun vid ->
      let o = Hashtbl.find tbl vid in
      render_side b ~vid ~free:o.o_free ~label:o.o_label ~args:o.o_args
        ~reqv:(List.rev o.o_reqv) ~reqe:(List.rev o.o_reqe) ~rq:(List.rev o.o_rq)
        ~recv:(List.rev o.o_recv))
    vids;
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* The differential schedule. Partitioned two-home graph, so it also
   exercises striped vids and the per-home free lists. *)

let labels =
  [| Label.If; Label.Ind; Label.Bottom; Label.Nil; Label.Prim Label.Add; Label.Int 7 |]

let differential_schedule seed =
  let rng = Random.State.make [| seed; 0x5f0a |] in
  let g = Graph.create ~num_pes:2 () in
  let tbl : (Vid.t, ovx) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  (* all vids ever allocated, in first-allocation order *)
  let live () = Hashtbl.fold (fun vid o acc -> if o.o_free then acc else vid :: acc) tbl []
  in
  let pick_live () =
    match List.sort compare (live ()) with
    | [] -> None
    | l -> Some (List.nth l (Random.State.int rng (List.length l)))
  in
  for _ = 1 to 150 do
    match Random.State.int rng 10 with
    | 0 | 1 ->
      let label = labels.(Random.State.int rng (Array.length labels)) in
      let v = Graph.alloc ~from:(Random.State.int rng 2) g label in
      let vid = Vertex.id v in
      if not (Hashtbl.mem tbl vid) then order := vid :: !order;
      Hashtbl.replace tbl vid (o_create label)
    | 2 -> (
      match pick_live () with
      | Some vid when List.length (live ()) > 1 ->
        Graph.release g vid;
        o_release (Hashtbl.find tbl vid)
      | Some _ | None -> ())
    | 3 | 4 -> (
      match pick_live () with
      | None -> ()
      | Some vid ->
        let c = Random.State.int rng 24 in
        Vertex.connect (Graph.vertex g vid) c;
        o_connect (Hashtbl.find tbl vid) c)
    | 5 -> (
      match pick_live () with
      | None -> ()
      | Some vid ->
        let c = Random.State.int rng 24 in
        Vertex.disconnect (Graph.vertex g vid) c;
        o_disconnect (Hashtbl.find tbl vid) c)
    | 6 -> (
      match pick_live () with
      | None -> ()
      | Some vid ->
        let vx = Graph.vertex g vid in
        if Vertex.arg_count vx > 0 then begin
          let c = Vertex.arg vx (Random.State.int rng (Vertex.arg_count vx)) in
          let d = if Random.State.bool rng then Demand.Vital else Demand.Eager in
          Vertex.request_arg vx c d;
          o_request (Hashtbl.find tbl vid) c d
        end)
    | 7 -> (
      match pick_live () with
      | None -> ()
      | Some vid ->
        let c = Random.State.int rng 24 in
        Vertex.drop_request (Graph.vertex g vid) c;
        o_drop_request (Hashtbl.find tbl vid) c)
    | 8 -> (
      match pick_live () with
      | None -> ()
      | Some vid ->
        let w = if Random.State.int rng 8 = 0 then -1 else Random.State.int rng 24 in
        let d = Random.State.int rng 2 in
        let k = Random.State.int rng 24 in
        Vertex.add_requester (Graph.vertex g vid)
          (if w < 0 then None else Some w)
          ~demand:(if d = 1 then Demand.Vital else Demand.Eager)
          ~key:k;
        o_add_requester (Hashtbl.find tbl vid) w d k)
    | _ -> (
      match pick_live () with
      | None -> ()
      | Some vid ->
        if Random.State.bool rng then begin
          let w = if Random.State.int rng 8 = 0 then -1 else Random.State.int rng 24 in
          Vertex.remove_who (Graph.vertex g vid) w;
          o_remove_requester (Hashtbl.find tbl vid) w
        end
        else begin
          let from = Random.State.int rng 24 in
          let value = Label.V_int (Random.State.int rng 100) in
          Vertex.record_value (Graph.vertex g vid) ~from value;
          o_record_value (Hashtbl.find tbl vid) from value
        end)
  done;
  let vids = List.rev !order in
  (digest_graph g vids, digest_oracle tbl vids)

let prop_store_matches_oracle =
  QCheck.Test.make ~name:"SoA store matches record-store oracle (snapshot digest)"
    ~count:100 QCheck.small_nat (fun seed ->
      let real, oracle = differential_schedule seed in
      if String.equal real oracle then true
      else QCheck.Test.fail_reportf "store/oracle digest mismatch@.--- store@.%s--- oracle@.%s" real oracle)

(* ---------------------------------------------------------------- *)
(* Free-list recycling: a released slot's grown rows come back capacity
   intact on the next alloc from the same home, reading empty. *)

let test_row_recycling () =
  let g = Graph.create ~num_pes:2 () in
  Graph.partition g ~pes:2;
  let v = Graph.alloc ~from:0 g Label.If in
  let vid = Vertex.id v in
  for i = 1 to 40 do
    Vertex.connect v i
  done;
  Vertex.add_requester v (Some 3) ~demand:Demand.Vital ~key:1;
  let cap = Vertex.args_capacity v in
  Alcotest.(check bool) "row grew past the base capacity" true (cap >= 40);
  Graph.release g vid;
  Alcotest.(check bool) "slot reads free" true (Vertex.free (Graph.vertex g vid));
  let v' = Graph.alloc ~from:0 g Label.Ind in
  Alcotest.(check int) "home free list recycles the slot (LIFO)" vid (Vertex.id v');
  Alcotest.(check int) "recycled row keeps its grown capacity" cap
    (Vertex.args_capacity v');
  Alcotest.(check int) "recycled slot reads zero args" 0 (Vertex.arg_count v');
  Alcotest.(check int) "recycled slot reads zero requesters" 0
    (Vertex.requested_count v');
  Alcotest.(check (list int)) "args view is empty" [] (Vertex.args v')

(* A fresh slot's birth allocates its handle and nothing else: 14 fields
   and a header, its plane state living in the chunk columns. A recycled
   birth reuses the slot's handle and allocates nothing. 400 births from
   one home of a partitioned 4-PE graph, the home's first slot born
   before the count. *)
let test_birth_alloc () =
  let g = Graph.create ~num_pes:4 () in
  Graph.partition g ~pes:4;
  let births = 400 in
  let vids = Array.make births 0 in
  ignore (Graph.alloc_from g ~from:1 Label.If : Vertex.t);
  let w0 = Gc.minor_words () in
  for i = 0 to births - 1 do
    vids.(i) <- Vertex.id (Graph.alloc_from g ~from:1 Label.If)
  done;
  let fresh = (Gc.minor_words () -. w0) /. float_of_int births in
  Array.iter (Graph.release g) vids;
  let w0 = Gc.minor_words () in
  for _ = 1 to births do
    ignore (Graph.alloc_from g ~from:1 Label.If : Vertex.t)
  done;
  let recycled = (Gc.minor_words () -. w0) /. float_of_int births in
  if fresh > 15.0 then
    Alcotest.failf "a fresh birth allocates %.2f minor words (bound 15)" fresh;
  Alcotest.(check (float 0.0)) "minor words per recycled birth" 0.0 recycled

let test_homes_do_not_share_free_lists () =
  let g = Graph.create ~num_pes:2 () in
  Graph.partition g ~pes:2;
  let a = Graph.alloc ~from:0 g Label.If in
  let _b = Graph.alloc ~from:1 g Label.If in
  Graph.release g (Vertex.id a);
  (* home 1 must not serve home 0's freed slot *)
  let c = Graph.alloc ~from:1 g Label.Ind in
  Alcotest.(check bool) "other home allocates a fresh slot" true
    (Vertex.id c <> Vertex.id a);
  let d = Graph.alloc ~from:0 g Label.Ind in
  Alcotest.(check int) "own home recycles it" (Vertex.id a) (Vertex.id d)

(* ---------------------------------------------------------------- *)
(* Fixed 512-slot chunks: slot [i] of a segment lives in chunk [i lsr 9].
   The dense prefix and a partitioned home's segment must resolve vids
   on both sides of every chunk boundary, and a home segment that grows
   past four chunks reallocates its chunk directory. *)

let boundary_slots = [ 0; 510; 511; 512; 513; 1022; 1023; 1024; 1025 ]

(* 1100 dense slots on 3 PEs, then a 4-PE partition whose home 2 grows
   2100 slots (five chunks): vid [base + 4k + 2] is its slot [k]. *)
let dense_n = 1100
let home_n = 2100
let home_vid k = dense_n + (4 * k) + 2

let chunked_graph () =
  let g = Graph.create ~num_pes:3 () in
  for i = 0 to dense_n - 1 do
    ignore (Graph.alloc ~pe:(i mod 3) g (Label.Int i) : Vertex.t)
  done;
  g

let check_slot g v ~pe ~label =
  Alcotest.(check bool) (Printf.sprintf "mem v%d" v) true (Graph.mem g v);
  Alcotest.(check int) (Printf.sprintf "vertex v%d" v) v (Vertex.id (Graph.vertex g v));
  Alcotest.(check int) (Printf.sprintf "pe v%d" v) pe (Graph.pe g v);
  Alcotest.(check bool) (Printf.sprintf "label v%d" v) true
    (Label.equal (Graph.label g v) (Label.Int label))

let home_ids g ~pe =
  let acc = ref [] in
  Graph.iter_home g ~pe (fun v -> acc := Vertex.id v :: !acc);
  List.rev !acc

let test_chunk_boundaries () =
  let g = chunked_graph () in
  List.iter (fun v -> check_slot g v ~pe:(v mod 3) ~label:v) (boundary_slots @ [ dense_n - 1 ]);
  Alcotest.(check bool) "past the dense end" false (Graph.mem g dense_n);
  Alcotest.(check bool) "negative vid" false (Graph.mem g (-1));
  Alcotest.(check (list int)) "dense iter_home"
    (List.filter (fun v -> v mod 3 = 1) (List.init dense_n Fun.id))
    (home_ids g ~pe:1);
  Graph.partition g ~pes:4;
  for k = 0 to home_n - 1 do
    ignore (Graph.alloc ~pe:(k mod 5) ~from:2 g (Label.Int k) : Vertex.t)
  done;
  List.iter
    (fun k -> check_slot g (home_vid k) ~pe:(k mod 5) ~label:k)
    (boundary_slots @ [ 1535; 1536; 2047; 2048; 2049; home_n - 1 ]);
  Alcotest.(check bool) "past the home's end" false (Graph.mem g (home_vid home_n));
  Alcotest.(check bool) "an empty home's first slot" false (Graph.mem g (dense_n + 1));
  Alcotest.check_raises "an empty home's slot is unknown"
    (Invalid_argument (Printf.sprintf "Graph.vertex: unknown vertex v%d" (dense_n + 1)))
    (fun () -> ignore (Graph.vertex g (dense_n + 1)));
  Alcotest.(check (list int)) "partitioned iter_home"
    (List.filter (fun v -> v mod 4 = 2) (List.init dense_n Fun.id)
    @ List.init home_n home_vid)
    (home_ids g ~pe:2)

(* A handle caches its chunk's columns: one taken before its segment's
   directory grows still reads and writes its own slot afterwards. *)
let test_handle_survives_growth () =
  let g = Graph.create ~num_pes:2 () in
  Graph.partition g ~pes:2;
  let first = Graph.alloc ~from:1 g (Label.Int 0) in
  for k = 1 to 1600 do
    ignore (Graph.alloc ~from:1 g (Label.Int k) : Vertex.t)
  done;
  let late = Graph.vertex g (Vertex.id first + (2 * 1600)) in
  for k = 1601 to home_n do
    ignore (Graph.alloc ~from:1 g (Label.Int k) : Vertex.t)
  done;
  List.iter
    (fun (h, n) ->
      Vertex.set_label h (Label.Int (-n));
      Alcotest.(check bool) "a write through the old handle is read by vid" true
        (Label.equal (Graph.label g (Vertex.id h)) (Label.Int (-n)));
      Vertex.set_pe (Graph.vertex g (Vertex.id h)) 7;
      Alcotest.(check int) "a write by vid is read through the old handle" 7 (Vertex.pe h))
    [ (first, 1); (late, 2) ]

(* Lookups across chunk boundaries, dense and partitioned, are two array
   reads each: no allocation. *)
let test_boundary_lookup_alloc () =
  let g = chunked_graph () in
  Graph.partition g ~pes:4;
  for k = 0 to home_n - 1 do
    ignore (Graph.alloc ~from:2 g (Label.Int k) : Vertex.t)
  done;
  let vids =
    Array.of_list (boundary_slots @ List.map home_vid (boundary_slots @ [ 2047; 2048 ]))
  in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    for i = 0 to Array.length vids - 1 do
      let v = vids.(i) in
      acc := !acc + Vertex.id (Graph.vertex g v) + Graph.pe g v + Bool.to_int (Graph.mem g v)
    done
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "lookups ran" true (!acc > 0);
  Alcotest.(check (float 0.0)) "minor words across 6,300 lookups" 0.0 words

let test_row_headroom_growth () =
  let v = Vertex.create 0 ~pe:0 Label.If in
  let prev = ref (Vertex.args_capacity v) in
  let grows = ref 0 in
  for i = 1 to 1000 do
    Vertex.connect v i;
    let c = Vertex.args_capacity v in
    if c <> !prev then begin
      Alcotest.(check bool) "capacity only grows" true (c > !prev);
      Alcotest.(check bool) "growth is geometric (at least doubling)" true
        (!prev = 0 || c >= 2 * !prev);
      incr grows;
      prev := c
    end;
    Alcotest.(check bool) "capacity covers the prefix" true (c >= i)
  done;
  Alcotest.(check bool) "amortized: O(log n) growths for 1000 appends" true (!grows <= 12);
  Alcotest.(check (list int)) "contents survive every growth"
    (List.init 1000 (fun i -> i + 1))
    (Vertex.args v)

(* ---------------------------------------------------------------- *)
(* Normalized-prefix bounds: the flat row stores args as a packed prefix
   of a larger capacity array; views must end exactly at the prefix and
   removals must re-pack, never exposing stale cells. *)

let test_args_bounds_and_normalization () =
  let v = Vertex.create 0 ~pe:0 Label.If in
  Vertex.connect v 10;
  Vertex.connect v 11;
  Vertex.connect v 12;
  Alcotest.(check int) "arg 0" 10 (Vertex.arg v 0);
  Alcotest.(check int) "arg 2" 12 (Vertex.arg v 2);
  Alcotest.check_raises "index = count is out of bounds"
    (Invalid_argument "Vertex.arg: index out of bounds") (fun () ->
      ignore (Vertex.arg v 3));
  Alcotest.check_raises "negative index is out of bounds"
    (Invalid_argument "Vertex.arg: index out of bounds") (fun () ->
      ignore (Vertex.arg v (-1)));
  Vertex.disconnect v 11;
  (* interior removal re-packs the prefix: the old tail cell holding 12
     moved left, and index 2 — still inside capacity — is now invalid *)
  Alcotest.(check int) "prefix re-packed" 12 (Vertex.arg v 1);
  Alcotest.check_raises "stale tail cell is not addressable"
    (Invalid_argument "Vertex.arg: index out of bounds") (fun () ->
      ignore (Vertex.arg v 2));
  Alcotest.(check bool) "membership respects the prefix" false (Vertex.has_arg v 11);
  let seen = ref [] in
  Vertex.iter_args v (fun c -> seen := c :: !seen);
  Alcotest.(check (list int)) "iteration covers exactly the prefix" [ 10; 12 ]
    (List.rev !seen);
  (* set_args renormalizes wholesale *)
  Vertex.set_args v [ 1; 2 ];
  Alcotest.(check int) "set_args pins the new count" 2 (Vertex.arg_count v);
  Alcotest.check_raises "old length is gone after set_args"
    (Invalid_argument "Vertex.arg: index out of bounds") (fun () ->
      ignore (Vertex.arg v 2))

let suite =
  [
    qtest prop_store_matches_oracle;
    Alcotest.test_case "free list recycles rows capacity-intact" `Quick
      test_row_recycling;
    Alcotest.test_case "a birth allocates only its handle" `Quick test_birth_alloc;
    Alcotest.test_case "per-home free lists are disjoint" `Quick
      test_homes_do_not_share_free_lists;
    Alcotest.test_case "vids resolve across chunk boundaries" `Quick test_chunk_boundaries;
    Alcotest.test_case "a handle survives directory growth" `Quick
      test_handle_survives_growth;
    Alcotest.test_case "boundary lookups allocate nothing" `Quick test_boundary_lookup_alloc;
    Alcotest.test_case "arg rows grow geometrically" `Quick test_row_headroom_growth;
    Alcotest.test_case "args are a normalized prefix with hard bounds" `Quick
      test_args_bounds_and_normalization;
  ]
