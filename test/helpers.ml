(* Shared test utilities. *)
open Dgr_graph

(* Mark handlers take lanes; run one on a view ([on_view h m]), or drop
   its spawns ([no_emit]). *)
let on_view (h : Dgr_task.Task.sink) m =
  h (Dgr_task.Task.lane_v m) (Dgr_task.Task.lane_par m) (Dgr_task.Task.lane_meta m)

let no_emit : Dgr_task.Task.sink = fun _ _ _ -> ()

let vid_set = Alcotest.testable (Fmt.Dump.list Fmt.int) (fun a b -> a = b)

let sorted_list_of_set s = Vid.Set.elements s

let check_vid_set msg expected actual =
  Alcotest.check vid_set msg (sorted_list_of_set expected) (sorted_list_of_set actual)

(* All vertices marked on a plane. *)
let marked_set g plane =
  Graph.fold_live
    (fun acc v ->
      if Vertex.marked v plane then Vid.Set.add (Vertex.id v) acc else acc)
    Vid.Set.empty g

let marked_with_prior g prior =
  Graph.fold_live
    (fun acc v ->
      if Vertex.marked v Plane.MR && Vertex.prior v Plane.MR = prior then
        Vid.Set.add (Vertex.id v) acc
      else acc)
    Vid.Set.empty g

(* No vertex left transient, every count zero. *)
let check_quiescent g plane =
  Graph.iter_live
    (fun v ->
      if Vertex.transient v plane then
        Alcotest.failf "v%d left transient after marking" (Vertex.id v);
      if Vertex.cnt v plane <> 0 then
        Alcotest.failf "v%d has residual mt-cnt=%d" (Vertex.id v) (Vertex.cnt v plane))
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
  let mut = Dgr_core.Mutator.create ~spawn:(fun _ _ _ -> ()) g in
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

(* The next task a PE's budget loop would run: the oldest highest-priority
   reduction, else the oldest mark (as a view). *)
let pop pool =
  let got = ref None in
  Dgr_sim.Pool.drain pool ~budget:1 (fun task _stamp -> got := Some task);
  !got

(* The oldest queued mark, as a view. *)
let pop_marking pool =
  let got = ref None in
  Dgr_sim.Pool.drain_marking pool ~budget:1 (fun v par meta ->
      got := Some (Dgr_task.Task.Marking (Dgr_task.Task.mark_of_lanes v par meta)));
  !got

(* --- boxed views of the lane paths ---------------------------------- *)

module Task = Dgr_task.Task

(* [Network.deliver_serial] with each reduction handed to [push pe stamp
   gen task] as a view. *)
let deliver_views net ~now ~push =
  Dgr_sim.Network.deliver_serial net ~now ~push:(fun pe a i err ->
      push pe a.(i + 6) a.(i + 5) (Task.Reduction (Task.reduction_of_row a i err)))

(* [Network.take_mark_lanes] with each mark handed over as a view. *)
let take_marks net ~pe f =
  let ring = Dgr_task.Mark_ring.create () in
  Dgr_sim.Network.take_mark_lanes net ~pe ring;
  List.iter (fun m -> f (Task.Marking m)) (Dgr_task.Mark_ring.to_list ring)

(* [(arrival, task)] for every message in flight in an engine. *)
let network_entries e = Dgr_sim.Network.entries (Dgr_sim.Engine.network e)

(* Where an engine's matching pending tasks sit: "pool[pe=N] …" or
   "network …". *)
let locate_task e pred =
  let module E = Dgr_sim.Engine in
  let acc = ref [] in
  for pe = 0 to E.Config.num_pes (E.config e) - 1 do
    List.iter
      (fun task ->
        if pred task then acc := Printf.sprintf "pool[pe=%d] %s" pe (Task.to_string task) :: !acc)
      (Dgr_sim.Pool.tasks (E.pool e pe))
  done;
  List.iter
    (fun task ->
      if pred task then acc := Printf.sprintf "network %s" (Task.to_string task) :: !acc)
    (Dgr_sim.Network.in_flight (E.network e));
  !acc

(* [Pool.drain_lanes] into the lists of the destinations it ran and
   dropped as stale, in pop order; marks go to [mark]. *)
let drain_split ?(budget = max_int) ?(mark = fun _ _ _ -> ()) pool =
  let ran = ref [] and dropped = ref [] in
  Dgr_sim.Pool.drain_lanes pool ~budget
    ~red:(fun _ _ _ dst _ _ _ -> ran := dst :: !ran)
    ~dead:(fun _ _ _ dst _ _ _ -> dropped := dst :: !dropped)
    ~mark;
  (List.rev !ran, List.rev !dropped)

(* --- the stop-the-world oracle ----------------------------------------- *)

(* A whole-graph mark & sweep over a snapshot: BFS from the root through
   [args], release the rest, drop dangling requester entries. It shares
   no code with the engine's collectors, so the fuzz compares a
   machine's live set against it. [work] is the engine's stop-the-world
   pause formula: vertices traced plus the table swept. *)
module Stw = struct
  type report = { marked : int; reclaimed : int; work : int }

  let collect g =
    let snap = Snapshot.take g in
    let reachable =
      if Graph.has_root g then Dgr_analysis.Reach.reachable_from snap [ Graph.root g ]
      else Vid.Set.empty
    in
    let garbage =
      Graph.fold_live
        (fun acc v -> if Vid.Set.mem (Vertex.id v) reachable then acc else Vertex.id v :: acc)
        [] g
    in
    let gar_set = Vid.Set.of_list garbage in
    Graph.iter_live
      (fun v ->
        if Vid.Set.mem (Vertex.id v) reachable then
          Vertex.retain_requesters v (fun r -> not (Vid.Set.mem r gar_set)))
      g;
    List.iter (Graph.release g) garbage;
    let marked = Vid.Set.cardinal reachable in
    { marked; reclaimed = List.length garbage; work = marked + Graph.vertex_count g }
end
