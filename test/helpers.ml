(* Shared test utilities. *)
open Dgr_graph

let vid_set = Alcotest.testable (Fmt.Dump.list Fmt.int) (fun a b -> a = b)

let sorted_list_of_set s = Vid.Set.elements s

let check_vid_set msg expected actual =
  Alcotest.check vid_set msg (sorted_list_of_set expected) (sorted_list_of_set actual)

(* All vertices marked on a plane. *)
let marked_set g plane =
  Graph.fold_live
    (fun acc v ->
      if Plane.marked (Vertex.plane v plane) then Vid.Set.add (Vertex.id v) acc else acc)
    Vid.Set.empty g

let marked_with_prior g prior =
  Graph.fold_live
    (fun acc v ->
      if Plane.marked (Vertex.mr v) && Plane.prior (Vertex.mr v) = prior then
        Vid.Set.add (Vertex.id v) acc
      else acc)
    Vid.Set.empty g

(* No vertex left transient, every count zero. *)
let check_quiescent g plane =
  Graph.iter_live
    (fun v ->
      let p = Vertex.plane v plane in
      if Plane.transient p then
        Alcotest.failf "v%d left transient after marking" (Vertex.id v);
      if (Plane.cnt p) <> 0 then
        Alcotest.failf "v%d has residual mt-cnt=%d" (Vertex.id v) (Plane.cnt p))
    g

let orders rng =
  [
    ("fifo", Dgr_core.Sync_engine.Fifo);
    ("lifo", Dgr_core.Sync_engine.Lifo);
    ("random", Dgr_core.Sync_engine.Random rng);
  ]

(* --- random distributed workloads (fault-plane fuzzing) -------------- *)

open Dgr_util

(* A heavy but survivable adversary: lossy, duplicating, reordering
   channel plus transient PE stalls. *)
let heavy_faults ?(seed = 0) () =
  {
    Dgr_sim.Faults.drop = 0.15;
    duplicate = 0.15;
    delay = 0.2;
    stall = 0.05;
    stall_max = 6;
    crash = 0.0;
    crash_down_max = 32;
    fault_seed = seed;
  }

(* The crash-schedule adversary: a moderately lossy channel plus
   whole-PE crashes. The crash rate and the maximum downtime (the
   recovery delay) are keyed on the seed so the 50-seed block covers
   rare long outages, frequent short ones, and — at rates toward the top
   of the range on 3-4 PE machines — overlapping multi-crashes. *)
let crash_faults ?(seed = 0) () =
  {
    Dgr_sim.Faults.drop = 0.05;
    duplicate = 0.05;
    delay = 0.1;
    stall = 0.02;
    stall_max = 4;
    crash = 0.003 +. (0.003 *. float_of_int (seed mod 4));
    crash_down_max = 1 + (seed mod 40);
    fault_seed = seed + 1000;
  }

(* Graph shapes keyed on the seed: a few to ~65 live vertices, some
   garbage clusters, varying fan-out and cyclicity. *)
let fuzz_spec seed =
  {
    Builder.live = 5 + (seed * 7 mod 60);
    garbage = seed * 3 mod 25;
    free_pool = 8;
    avg_degree = 1.0 +. (float_of_int (seed land 7) /. 3.0);
    cycle_bias = float_of_int (seed land 3) /. 4.0;
  }

(* Mutation schedules are alloc-free (witnessed add-reference and
   delete-reference only), so the same concrete vid schedule replays on
   any identically-built copy of the graph: reachability only shrinks,
   adds are witnessed by existing edges (a→b→c), and no free-list slot is
   ever recycled to alias a vid between the two copies. *)
type mutation =
  | Add_ref of { a : Vid.t; b : Vid.t; c : Vid.t }  (** add a→c, witness a→b→c *)
  | Del_ref of { a : Vid.t; b : Vid.t }

let apply_mutation mut = function
  | Add_ref { a; b; c } -> Dgr_core.Mutator.add_reference mut ~a ~b ~c
  | Del_ref { a; b } -> Dgr_core.Mutator.delete_reference mut ~a ~b

(* MD5 of the sorted live vid list: a compact live-set fingerprint for
   cross-domain-count comparisons. *)
let live_digest g =
  Digest.to_hex
    (Digest.string
       (String.concat "," (List.map string_of_int (List.sort compare (Graph.live_vids g)))))

let root_reachable g =
  if not (Graph.has_root g) then Vid.Set.empty
  else begin
    let seen = ref Vid.Set.empty in
    let rec go v =
      if not (Vid.Set.mem v !seen) then begin
        seen := Vid.Set.add v !seen;
        List.iter go (Vertex.args (Graph.vertex g v))
      end
    in
    go (Graph.root g);
    !seen
  end

(* Generate a schedule by mutating [g] as we go: each op picks only
   vertices currently reachable in [g], so replaying the same ops (in the
   same order, interleaved with collections) on an identical copy never
   touches a vid the copy could have reclaimed. [g] ends up in the
   schedule's final state — ready to serve as the reference for a
   differential oracle. *)
let gen_schedule rng g ~ops =
  let mut = Dgr_core.Mutator.create ~spawn:(fun _ -> ()) g in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let args v = Vertex.args (Graph.vertex g v) in
  let schedule = ref [] in
  for _ = 1 to ops do
    let reachable = Vid.Set.elements (root_reachable g) in
    let with_args = List.filter (fun v -> args v <> []) reachable in
    let attempt_add () =
      match
        List.filter (fun a -> List.exists (fun b -> args b <> []) (args a)) with_args
      with
      | [] -> None
      | cands ->
        let a = pick cands in
        let b = pick (List.filter (fun b -> args b <> []) (args a)) in
        let c = pick (args b) in
        Some (Add_ref { a; b; c })
    in
    let attempt_del () =
      match with_args with
      | [] -> None
      | _ ->
        let a = pick with_args in
        Some (Del_ref { a; b = pick (args a) })
    in
    let op =
      if Rng.int rng 10 < 6 then
        match attempt_add () with Some o -> Some o | None -> attempt_del ()
      else match attempt_del () with Some o -> Some o | None -> attempt_add ()
    in
    match op with
    | Some op ->
      apply_mutation mut op;
      schedule := op :: !schedule
    | None -> ()
  done;
  List.rev !schedule

(* One network tick: every task [Network.deliver_into] hands up, as
   (pe, task) pairs in its order. *)
let deliver net ~now =
  let acc = ref [] in
  Dgr_sim.Network.deliver_into net ~now ~push:(fun pe _stamp task -> acc := (pe, task) :: !acc);
  List.rev !acc
