open Dgr_util

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 0" 0 (Vec.get v 0);
  Alcotest.(check int) "get 99" 99 (Vec.get v 99);
  Alcotest.(check (option int)) "pop" (Some 99) (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index 3 out of bounds [0,3)")
    (fun () -> ignore (Vec.get v 3))

let test_vec_filter_in_place () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5; 6 ] in
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "evens kept in order" [ 2; 4; 6 ] (Vec.to_list v)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independence () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 100) in
  let ys = List.init 20 (fun _ -> Rng.int b 100) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "Rng.int out of range: %d" x;
    let f = Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "Rng.float out of range: %f" f
  done

(* The splitmix64 stream, pinned: these outputs were drawn before the
   state moved out of a boxed int64, and every seeded run (fault dice,
   jitter, graph builders) replays them. *)
let test_rng_stream_pinned () =
  let a = Rng.create 42 in
  Alcotest.(check (list int64)) "create 42: int64"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L; 6349198060258255764L ]
    (List.init 4 (fun _ -> Rng.int64 a));
  let b = Rng.split a in
  Alcotest.(check (list int)) "split: int 1000" [ 653; 719; 4; 821; 952; 51; 874; 316 ]
    (List.init 8 (fun _ -> Rng.int b 1000));
  let s = Rng.stream ~seed:7 3 in
  let c = Rng.copy s in
  Alcotest.(check (list (float 0.0))) "stream 7 3: float 1.0"
    [ 0x1.a1019f5f71259p-1; 0x1.e065460bd8f48p-4; 0x1.faf8b20472d18p-3; 0x1.faf199aeebc2cp-2 ]
    (List.init 4 (fun _ -> Rng.float s 1.0));
  Alcotest.(check (list bool)) "then bool"
    [ false; false; true; true; true; false; false; false ]
    (List.init 8 (fun _ -> Rng.bool s));
  Alcotest.(check (float 0.0)) "a copy replays the stream" 0x1.a1019f5f71259p-1 (Rng.float c 1.0);
  let d = Rng.create (-5) in
  Alcotest.(check (list bool)) "create -5: chance 0.3 (float 1.0 < 0.3 before the change)"
    [ true; false; false; false; false; true; true; false; false; false; true; true ]
    (List.init 12 (fun _ -> Rng.chance d 0.3))

(* The fault plane rolls several dice per step and per transmission; none
   of them may allocate. *)
let test_rng_rolls_unboxed () =
  let rng = Rng.create 9 in
  let f =
    Dgr_sim.Faults.create
      { Dgr_sim.Faults.none with
        drop = 0.2; duplicate = 0.1; delay = 0.3; stall = 0.05; crash = 0.01; fault_seed = 4 }
  in
  let open Dgr_sim.Faults in
  List.iter
    (fun (name, roll) ->
      roll ();
      let calls = 10_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to calls do
        roll ()
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) (Printf.sprintf "%s: minor words over %d calls" name calls) 0.0
        words)
    [
      ("Rng.int", fun () -> ignore (Sys.opaque_identity (Rng.int rng 10)));
      ("Rng.chance", fun () -> ignore (Sys.opaque_identity (Rng.chance rng 0.5)));
      ("Faults.drops_frame", fun () -> ignore (Sys.opaque_identity (drops_frame f)));
      ("Faults.duplicates_frame", fun () -> ignore (Sys.opaque_identity (duplicates_frame f)));
      ("Faults.extra_delay", fun () -> ignore (Sys.opaque_identity (extra_delay f ~latency:4)));
      ("Faults.stall_begins", fun () -> ignore (Sys.opaque_identity (stall_begins f ~pe:0)));
      ("Faults.crash_begins", fun () -> ignore (Sys.opaque_identity (crash_begins f ~pe:0)));
    ]

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  Pqueue.add q 3 "c";
  Pqueue.add q 1 "a";
  Pqueue.add q 2 "b";
  Pqueue.add q 1 "a2";
  let order = List.init 4 (fun _ -> match Pqueue.pop q with Some (_, x) -> x | None -> "?") in
  Alcotest.(check (list string)) "min first, fifo ties" [ "a"; "a2"; "b"; "c" ] order

let test_pqueue_filter () =
  let q = Pqueue.create () in
  List.iter (fun i -> Pqueue.add q i i) [ 5; 3; 8; 1; 9 ];
  Pqueue.filter_in_place (fun p _ -> p < 6) q;
  Alcotest.(check int) "filtered size" 3 (Pqueue.length q);
  Alcotest.(check (option (pair int int))) "min survives" (Some (1, 1)) (Pqueue.pop q)

let test_pqueue_map_priorities () =
  let q = Pqueue.create () in
  List.iter (fun i -> Pqueue.add q i (string_of_int i)) [ 1; 2; 3 ];
  Pqueue.map_priorities (fun p _ -> -p) q;
  Alcotest.(check (option (pair int string))) "reversed" (Some (-3, "3")) (Pqueue.pop q)

let test_pqueue_sorted_list_stable () =
  let q = Pqueue.create () in
  (* Many entries sharing priorities, interleaved across bands: the
     insertion index is the payload, so stability is directly visible. *)
  List.iteri (fun i p -> Pqueue.add q p i) [ 5; 1; 5; 3; 5; 1; 5; 3; 5 ];
  let sorted = Pqueue.to_sorted_list q in
  Alcotest.(check (list (pair int int))) "ascending priority, insertion order among equals"
    [ (1, 1); (1, 5); (3, 3); (3, 7); (5, 0); (5, 2); (5, 4); (5, 6); (5, 8) ]
    sorted;
  (* Building the view must not disturb the queue, and must predict pop
     order exactly. *)
  let popped = List.init (Pqueue.length q) (fun _ -> Option.get (Pqueue.pop q)) in
  Alcotest.(check (list (pair int int))) "to_sorted_list = pop order" sorted popped

let test_pqueue_map_priorities_keeps_ranks () =
  let q = Pqueue.create () in
  List.iteri (fun i p -> Pqueue.add q p i) [ 2; 2; 2; 7; 7 ];
  (* Collapse every band into one: the heap rebuild must keep FIFO ranks,
     so the pop order is exactly insertion order. *)
  Pqueue.map_priorities (fun _ _ -> 1) q;
  let popped = List.init (Pqueue.length q) (fun _ -> Option.get (Pqueue.pop q)) in
  Alcotest.(check (list (pair int int))) "fifo ranks survive the rebuild"
    [ (1, 0); (1, 1); (1, 2); (1, 3); (1, 4) ]
    popped

(* The swap-based binary heap [Pqueue] used before its sifts moved
   entries through a hole: the layout oracle for the hole-based sifts.
   Entries are (prio, rank, value) triples in heap order. *)
module Swap_heap = struct
  type t = { mutable a : (int * int * int) array; mutable len : int; mutable next : int }

  let create () = { a = Array.make 1024 (0, 0, 0); len = 0; next = 0 }

  let less h i j =
    let pi, ri, _ = h.a.(i) and pj, rj, _ = h.a.(j) in
    pi < pj || (pi = pj && ri < rj)

  let swap h i j =
    let x = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- x

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less h i parent then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.len && less h l !smallest then smallest := l;
    if r < h.len && less h r !smallest then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let add h prio v =
    h.a.(h.len) <- (prio, h.next, v);
    h.next <- h.next + 1;
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  let pop h =
    if h.len = 0 then None
    else begin
      let p, _, v = h.a.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.a.(0) <- h.a.(h.len);
        sift_down h 0
      end;
      Some (p, v)
    end

  let filter keep h =
    let j = ref 0 in
    for i = 0 to h.len - 1 do
      let p, _, v = h.a.(i) in
      if keep p v then begin
        h.a.(!j) <- h.a.(i);
        incr j
      end
    done;
    h.len <- !j;
    for i = (h.len / 2) - 1 downto 0 do
      sift_down h i
    done

  let layout h = List.init h.len (fun i -> let p, _, v = h.a.(i) in (p, v))
end

let test_pqueue_hole_sifts_match_swap_oracle () =
  let rng = Rng.create 42 in
  let q = Pqueue.create () and h = Swap_heap.create () in
  let layout q =
    let acc = ref [] in
    Pqueue.iter (fun p v -> acc := (p, v) :: !acc) q;
    List.rev !acc
  in
  let next = ref 0 in
  for step = 1 to 4000 do
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
      (* few priorities, so FIFO ranks break most comparisons *)
      let prio = Rng.int rng 4 in
      Pqueue.add q prio !next;
      Swap_heap.add h prio !next;
      incr next
    | 5 | 6 | 7 | 8 ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "pop %d" step) (Swap_heap.pop h) (Pqueue.pop q)
    | _ ->
      let m = 2 + Rng.int rng 5 in
      Pqueue.filter_in_place (fun _ v -> v mod m <> 0) q;
      Swap_heap.filter (fun _ v -> v mod m <> 0) h);
    if Pqueue.length q > 900 then Pqueue.filter_in_place (fun _ v -> v land 1 = 0) q;
    if h.Swap_heap.len > 900 then Swap_heap.filter (fun _ v -> v land 1 = 0) h;
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "layout after op %d" step) (Swap_heap.layout h) (layout q)
  done

(* A fixed sequence, read back through every accessor. The sample
   variance of [3; -1; 7; 0; 2] is 38.8 / 4. *)
let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 3; -1; 7; 0; 2 ];
  Alcotest.(check int) "count" 5 (Stats.count s);
  Alcotest.(check (float 0.0)) "total" 11.0 (Stats.total s);
  Alcotest.(check (float 1e-12)) "mean" 2.2 (Stats.mean s);
  Alcotest.(check (float 1e-12)) "stddev" (sqrt (38.8 /. 4.0)) (Stats.stddev s);
  Alcotest.(check (float 0.0)) "min" (-1.0) (Stats.min_value s);
  Alcotest.(check (float 0.0)) "max" 7.0 (Stats.max_value s);
  (* the accumulator keeps no samples: adding allocates nothing *)
  let w0 = Gc.minor_words () in
  for i = 1 to 1_000 do
    Stats.add s i
  done;
  Alcotest.(check (float 0.0)) "minor words over 1,000 adds" 0.0 (Gc.minor_words () -. w0);
  Alcotest.(check int) "count after" 1_005 (Stats.count s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count empty" 0 (Stats.count s);
  Alcotest.(check (float 0.0)) "total empty" 0.0 (Stats.total s);
  Alcotest.(check (float 0.0)) "mean empty" 0.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "stddev empty" 0.0 (Stats.stddev s);
  Alcotest.(check bool) "min empty is nan" true (Float.is_nan (Stats.min_value s));
  Alcotest.(check bool) "max empty is nan" true (Float.is_nan (Stats.max_value s))

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ ("name", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 11 = "== demo ==\n");
  Alcotest.check_raises "row width"
    (Invalid_argument "Table.add_row: expected 2 cells, got 1") (fun () ->
      Table.add_row t [ "only-one" ])

(* The bitset against a bool-array oracle: random adds and removes over
   sizes around the word boundaries, [next] from every index, and
   [elements] and [fill] ascending; a walk may remove the member it is
   on. *)
let test_bitset_oracle () =
  List.iter
    (fun n ->
      let rng = Rng.create n in
      let s = Bitset.create n and o = Array.make n false in
      let next_oracle i =
        let rec go j = if j >= n then -1 else if o.(j) then j else go (j + 1) in
        go (Int.max 0 i)
      in
      for _ = 1 to 4 * n do
        let i = Rng.int rng n in
        if Rng.int rng 3 = 0 then (Bitset.remove s i; o.(i) <- false)
        else (Bitset.add s i; o.(i) <- true);
        let probe = Rng.int rng (n + 2) - 1 in
        Alcotest.(check int) (Printf.sprintf "n=%d: next %d" n probe) (next_oracle probe)
          (Bitset.next s probe)
      done;
      let expected = List.filter (fun i -> o.(i)) (List.init n Fun.id) in
      Alcotest.(check (list int)) (Printf.sprintf "n=%d: elements" n) expected (Bitset.elements s);
      let dst = Array.make n (-1) in
      let k = Bitset.fill s dst in
      Alcotest.(check (list int)) (Printf.sprintf "n=%d: fill" n) expected
        (Array.to_list (Array.sub dst 0 k));
      let i = ref (Bitset.next s 0) and seen = ref [] in
      while !i >= 0 do
        seen := !i :: !seen;
        Bitset.remove s !i;
        i := Bitset.next s (!i + 1)
      done;
      Alcotest.(check (list int)) (Printf.sprintf "n=%d: removing walk" n) expected
        (List.rev !seen);
      Alcotest.(check (list int)) (Printf.sprintf "n=%d: emptied" n) [] (Bitset.elements s))
    [ 1; 61; 62; 63; 124; 125; 200; 257 ];
  Alcotest.check_raises "outside the set"
    (Invalid_argument "Bitset.add: 8 outside [0, 8)") (fun () -> Bitset.add (Bitset.create 8) 8)

let suite =
  [
    Alcotest.test_case "vec push/get/pop" `Quick test_vec_push_get;
    Alcotest.test_case "vec bounds checking" `Quick test_vec_bounds;
    Alcotest.test_case "vec filter_in_place" `Quick test_vec_filter_in_place;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independence;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "pqueue ordering and ties" `Quick test_pqueue_ordering;
    Alcotest.test_case "pqueue filter" `Quick test_pqueue_filter;
    Alcotest.test_case "pqueue map_priorities" `Quick test_pqueue_map_priorities;
    Alcotest.test_case "pqueue to_sorted_list stability" `Quick
      test_pqueue_sorted_list_stable;
    Alcotest.test_case "pqueue map_priorities keeps ranks" `Quick
      test_pqueue_map_priorities_keeps_ranks;
    Alcotest.test_case "pqueue hole sifts = swap-based layout" `Quick
      test_pqueue_hole_sifts_match_swap_oracle;
    Alcotest.test_case "stats accumulation" `Quick test_stats_basic;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "rng stream pinned across representations" `Quick
      test_rng_stream_pinned;
    Alcotest.test_case "rng and fault dice allocate nothing" `Quick test_rng_rolls_unboxed;
    Alcotest.test_case "bitset = bool-array oracle" `Quick test_bitset_oracle;
  ]
