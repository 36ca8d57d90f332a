(* Per-PE checkpoint round-trips ([Dgr_graph.Checkpoint]).

   The crash plane's correctness rests on one property: restoring a
   checkpoint synced at step [t] rebuilds the home slice exactly as it
   was at step [t] — not approximately, byte for byte. These tests pin
   that property directly: sync, maul the slice, restore, and demand the
   snapshot digest (a marshalled [Snapshot.take]) come back identical;
   restore into a *fresh* graph and demand the same; and check the two
   edge cases the engine relies on — slots born after the last sync are
   forfeited to the free list, and the free list itself round-trips in
   pop order with the forfeited slots appended behind it. *)
open Dgr_graph
open Dgr_util

let build seed ~num_pes =
  let g = Builder.random ~num_pes (Rng.create seed) (Helpers.fuzz_spec seed) in
  Graph.partition g ~pes:num_pes;
  g

let digest g = Digest.to_hex (Digest.string (Marshal.to_string (Snapshot.take g) []))

let ckpts_of g =
  Array.init (Graph.num_pes g) (fun pe -> Checkpoint.create g ~pe)

let sync_all ?(now = 0) cks = Array.iter (fun c -> ignore (Checkpoint.sync c ~now)) cks

let restore_all ?into cks = Array.iter (fun c -> Checkpoint.restore ?into c) cks

(* Scramble a few live vertices of [pe]'s slice the way a crash would:
   the slice's state after the crash is arbitrary garbage as far as the
   checkpoint is concerned. *)
let maul g ~pe =
  Graph.iter_home g ~pe (fun v ->
      if not (Vertex.free v) then begin
        Vertex.set_args v [];
        List.iter (Vertex.drop_request v) (Vertex.req_v v);
        Vertex.set_sched_prior v @@ (Vertex.sched_prior v) + 7;
        (* an unmarked vertex turns marked, a marked one keeps its
           colour; either way its count is off by 42 *)
        ignore
          (Vertex.mark_closure v Plane.MR ~prior:1 ~metas:[| 0; 1; 2; 3 |]
             ~emit:(fun _ _ _ -> ())
            : int);
        for _ = 1 to 42 do
          Vertex.charge v Plane.MR
        done
      end)

(* How [Invariants.ownership_guard] answers for every live vertex, under
   the right owner, a wrong PE, and the controller. The restored graph
   must be indistinguishable from the original to the sharded engine's
   ownership discipline, so the answer vectors must match exactly. *)
let guard_fingerprint g =
  let num_pes = Graph.num_pes g in
  List.concat_map
    (fun vid ->
      let v = Graph.vertex g vid in
      List.map
        (fun probe ->
          let ok =
            try
              Dgr_core.Invariants.ownership_guard g ~executing_pe:(fun () -> probe) vid;
              true
            with Failure _ -> false
          in
          (vid, probe, ok))
        [ (Vertex.pe v); ((Vertex.pe v) + 1) mod num_pes; -1 ])
    (List.sort compare (Graph.live_vids g))

let test_roundtrip_in_place () =
  List.iter
    (fun seed ->
      let g = build seed ~num_pes:4 in
      (* no vertex is epoch-exempt when the guard fingerprints run *)
      Graph.bump_epoch g;
      let reference = digest g in
      let guards = guard_fingerprint g in
      let cks = ckpts_of g in
      sync_all ~now:3 cks;
      for pe = 0 to 3 do
        maul g ~pe
      done;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: mauling moved the digest" seed)
        true (digest g <> reference);
      restore_all cks;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: snapshot digest restored byte-identical" seed)
        reference (digest g);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: ownership_guard answers unchanged" seed)
        true
        (guard_fingerprint g = guards);
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: restored graph validates" seed)
        [] (Validate.check g))
    [ 1; 4; 9; 14 ]

let test_restore_into_fresh_graph () =
  List.iter
    (fun seed ->
      let num_pes = 1 + (seed mod 4) in
      let g = build seed ~num_pes in
      Graph.bump_epoch g;
      let cks = ckpts_of g in
      sync_all ~now:5 cks;
      let fresh = Graph.create ~num_pes () in
      Graph.partition fresh ~pes:num_pes;
      restore_all ~into:fresh cks;
      if Graph.has_root g then Graph.set_root fresh (Graph.root g);
      Graph.bump_epoch fresh;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: fresh graph digest = original" seed)
        (digest g) (digest fresh);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: guard fingerprints agree" seed)
        true
        (guard_fingerprint fresh = guard_fingerprint g);
      (* the per-home free lists came across in pop order *)
      for pe = 0 to num_pes - 1 do
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d: home %d free list round-tripped" seed pe)
          (Graph.home_free_list g ~pe)
          (Graph.home_free_list fresh ~pe)
      done)
    [ 0; 3; 7; 12 ]

(* [sync] is incremental: an untouched slice refreshes zero entries, a
   single mutation refreshes exactly its entry, and the step tags tell
   the two apart. *)
let test_incremental_sync () =
  let g = build 2 ~num_pes:2 in
  let c = Checkpoint.create g ~pe:0 in
  let first = Checkpoint.sync c ~now:1 in
  Alcotest.(check bool) "first sync captures the whole slice" true (first > 0);
  Alcotest.(check int) "entry per slot" first (Checkpoint.entry_count c);
  Alcotest.(check int) "quiet slice refreshes nothing" 0 (Checkpoint.sync c ~now:2);
  (match List.filter (fun v -> Graph.home_of_vid g v = 0) (Graph.live_vids g) with
  | [] -> Alcotest.fail "no live vertex homed at 0"
  | vid :: _ ->
    Vertex.set_sched_prior (Graph.vertex g vid) @@ 99;
    Alcotest.(check int) "one mutation, one rewrite" 1 (Checkpoint.sync c ~now:3);
    Alcotest.(check (option int)) "rewritten entry carries the sync step" (Some 3)
      (Checkpoint.step_of c vid);
    let untouched =
      List.find (fun v -> v <> vid && Graph.home_of_vid g v = 0) (Graph.live_vids g)
    in
    Alcotest.(check (option int)) "untouched entry keeps its original tag" (Some 1)
      (Checkpoint.step_of c untouched));
  Alcotest.(check int) "last_sync tracks the latest call" 3 (Checkpoint.last_sync c)

(* A slot born after the last sync — in the crash step itself — is
   unknown to the checkpoint: the crash loses it, so restore resets it
   and appends it behind the checkpointed free list. *)
let test_same_step_birth_forfeited () =
  let g = build 6 ~num_pes:2 in
  let cks = ckpts_of g in
  sync_all ~now:4 cks;
  let free_before = Graph.home_free_list g ~pe:0 in
  (* births that reuse checkpointed free slots are covered by their
     entries; drain them so the next birth grows a slot the checkpoint
     has never seen *)
  for _ = 1 to List.length free_before do
    ignore (Graph.alloc ~from:0 g Label.Nil)
  done;
  let fresh = Graph.alloc ~from:0 g Label.Nil in
  Alcotest.(check int) "allocation landed on home 0" 0
    (Graph.home_of_vid g (Vertex.id fresh));
  Alcotest.(check bool) "newborn is live pre-crash" false (Vertex.free fresh);
  restore_all cks;
  Alcotest.(check bool) "newborn forfeited to the free pool" true
    (Vertex.free (Graph.vertex g (Vertex.id fresh)));
  Alcotest.(check (list int)) "free list = checkpointed list, newborn appended"
    (free_before @ [ (Vertex.id fresh) ])
    (Graph.home_free_list g ~pe:0);
  Alcotest.(check (list string)) "graph validates after forfeiture" []
    (Validate.check g)

(* Free-list headroom: draining the home free list after the sync (and
   growing the stripe past it) must all roll back — the checkpointed
   pop order returns, with every post-sync slot appended in vid order. *)
let test_free_list_headroom () =
  let g = build 8 ~num_pes:2 in
  let cks = ckpts_of g in
  sync_all ~now:9 cks;
  let free_before = Graph.home_free_list g ~pe:1 in
  Alcotest.(check bool) "slice starts with free headroom" true
    (List.length free_before > 0);
  (* drain the checkpointed free list, then force stripe growth *)
  let born = ref [] in
  for _ = 1 to List.length free_before + 3 do
    let v = Graph.alloc ~from:1 g Label.Nil in
    if Graph.home_of_vid g (Vertex.id v) = 1 then born := (Vertex.id v) :: !born
  done;
  Alcotest.(check (list int)) "free list drained" []
    (Graph.home_free_list g ~pe:1);
  restore_all cks;
  let grown =
    List.sort compare (List.filter (fun v -> not (List.mem v free_before)) !born)
  in
  Alcotest.(check (list int)) "headroom restored: old pop order + grown slots"
    (free_before @ grown)
    (Graph.home_free_list g ~pe:1);
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "post-sync slot %d is free again" v) true
        (Vertex.free (Graph.vertex g v)))
    !born

let test_restore_before_sync_rejected () =
  let g = build 1 ~num_pes:2 in
  let c = Checkpoint.create g ~pe:0 in
  Alcotest.check_raises "restore without a sync is refused"
    (Invalid_argument "Checkpoint.restore: never synced") (fun () ->
      Checkpoint.restore c)

let suite =
  [
    Alcotest.test_case "round-trip restores the snapshot digest" `Quick
      test_roundtrip_in_place;
    Alcotest.test_case "restore into a fresh graph is byte-identical" `Quick
      test_restore_into_fresh_graph;
    Alcotest.test_case "sync is incremental and step-tagged" `Quick
      test_incremental_sync;
    Alcotest.test_case "same-step births are forfeited to the free list" `Quick
      test_same_step_birth_forfeited;
    Alcotest.test_case "free-list headroom round-trips" `Quick
      test_free_list_headroom;
    Alcotest.test_case "restore before first sync is refused" `Quick
      test_restore_before_sync_rejected;
  ]
