open Dgr_graph
open Dgr_task

type env = {
  spawn_mark : Task.sink;
  pes : int;
  iter_pe_endpoints : int -> (Vid.t -> unit) -> unit;
  reprioritize : unit -> int;
  each_home : (int -> unit) -> unit;
  now : unit -> int;
}

type phase = Idle | Mark_tasks | Mark_root

type scheme = Tree | Flood_counters

type handler = Tree_run of Run.t | Flood_run of Flood.t

type t = {
  g : Graph.t;
  mut : Mutator.t;
  env : env;
  recorder : Dgr_obs.Recorder.t option;
  deadlock_every : int;
  cycle_scheme : scheme;
  detection_window : int;
  mutable phase : phase;
  mutable mr_run : Run.t option;
  mutable mt_run : Run.t option;
  mutable mr_flood : Flood.t option;
  mutable mt_flood : Flood.t option;
  mutable mr_h : handler option;  (* cached boxed handlers: the dispatch *)
  mutable mt_h : handler option;  (* runs per marking task, so no re-boxing *)
  mutable detector : Termination.t;
  mutable mt_ran_this_cycle : bool;
  mutable cycles : int;
  mutable last_report : Restructure.report option;
  mutable deadlocked_ever : Vid.Set.t;
  mutable total_garbage : int;
  verdicts : Restructure.verdicts;  (* reused by every restructure *)
}

let create ?(deadlock_every = 1) ?(scheme = Tree) ?(detection_window = 8) ?recorder g mut
    env =
  {
    g;
    mut;
    env;
    recorder;
    deadlock_every;
    cycle_scheme = scheme;
    detection_window;
    phase = Idle;
    mr_run = None;
    mt_run = None;
    mr_flood = None;
    mt_flood = None;
    mr_h = None;
    mt_h = None;
    (* placeholder; replaced at each flood phase start with the phase's
       epoch — never consulted while Idle *)
    detector = Termination.create ~window:detection_window ~epoch:(-1) ~pes:1;
    mt_ran_this_cycle = false;
    cycles = 0;
    last_report = None;
    deadlocked_ever = Vid.Set.empty;
    total_garbage = 0;
    verdicts = Restructure.verdicts ();
  }

let obs t kind =
  match t.recorder with None -> () | Some r -> Dgr_obs.Recorder.emit r kind

let scheme t = t.cycle_scheme

let phase t = t.phase

let seed run env v =
  Run.seed_added run;
  env.spawn_mark v (-1) (Marker.seed_meta run)

let flood_seed fl env v =
  Flood.count_seed fl ~pe:0;
  env.spawn_mark v (-1) (Flood.seed_meta fl)

(* Build taskroot_i from per-PE local knowledge: each PE enumerates the
   reduction endpoints it knows (its pool, its shard of the in-flight
   set), visited in fixed PE order. Duplicates across PEs (a
   task in flight is known to sender and receiver) are dropped in O(1)
   by stamping the vertex with the current wave — no global set is
   built. First PE to name a vertex seeds it. *)
let seed_endpoints t ~seed_one =
  let wave = Graph.wave t.g in
  for pe = 0 to t.env.pes - 1 do
    t.env.iter_pe_endpoints pe (fun v ->
        let vx = Graph.vertex t.g v in
        if (not (Vertex.free vx)) && Vertex.seed_stamp vx <> wave then begin
          Vertex.set_seed_stamp vx wave;
          seed_one v
        end)
  done

let phase_obs t phase =
  obs t (Dgr_obs.Event.Phase { phase; cycle = t.cycles; wave = Graph.wave t.g })

let start_mark_root t =
  Graph.reset_plane t.g Plane.MR;
  t.phase <- Mark_root;
  phase_obs t Dgr_obs.Event.Mark_root;
  match t.cycle_scheme with
  | Tree ->
    let run = Run.create t.g Run.Priority in
    t.mr_run <- Some run;
    t.mr_h <- Some (Tree_run run);
    Mutator.set_active t.mut [ run ];
    if Graph.has_root t.g then begin
      let root = Graph.root t.g in
      if not (Vertex.free (Graph.vertex t.g root)) then seed run t.env root
    end;
    Run.check_trivially_finished run
  | Flood_counters ->
    let fl = Flood.create t.g Run.Priority in
    t.mr_flood <- Some fl;
    t.mr_h <- Some (Flood_run fl);
    t.detector <-
      Termination.create ~window:t.detection_window ~epoch:fl.Flood.wave ~pes:t.env.pes;
    Mutator.set_active_flood t.mut [ fl ];
    if Graph.has_root t.g then begin
      let root = Graph.root t.g in
      if not (Vertex.free (Graph.vertex t.g root)) then flood_seed fl t.env root
    end

let start_mark_tasks t =
  Graph.reset_plane t.g Plane.MT;
  t.mt_ran_this_cycle <- true;
  t.phase <- Mark_tasks;
  phase_obs t Dgr_obs.Event.Mark_tasks;
  match t.cycle_scheme with
  | Tree ->
    let run = Run.create t.g Run.Tasks in
    t.mt_run <- Some run;
    t.mt_h <- Some (Tree_run run);
    Mutator.set_active t.mut [ run ];
    seed_endpoints t ~seed_one:(fun v -> seed run t.env v);
    Run.check_trivially_finished run
  | Flood_counters ->
    let fl = Flood.create t.g Run.Tasks in
    t.mt_flood <- Some fl;
    t.mt_h <- Some (Flood_run fl);
    t.detector <-
      Termination.create ~window:t.detection_window ~epoch:fl.Flood.wave ~pes:t.env.pes;
    Mutator.set_active_flood t.mut [ fl ];
    seed_endpoints t ~seed_one:(fun v -> flood_seed fl t.env v)

(* Crash recovery: a PE loss invalidates the wave in progress — marks it
   left half-propagated, returns and counter credits it lost in flight —
   so the engine calls this to re-derive the phase from scratch.
   Restarting re-resets the phase's plane, which opens a {e new} wave:
   the dead wave's surviving in-flight tasks and credits carry the old
   epoch and are dropped at dispatch / by the detector, so no
   machine-wide purge is needed. A fresh run (tree) or flood counters +
   termination detector (flood) is created under the new epoch and
   re-seeded; the {e other} plane's finished result is untouched — its
   marks were settled before this phase began and remain a valid
   (conservative) input to the cycle's verdict. *)
let restart_phase t =
  match t.phase with
  | Idle -> ()
  | Mark_tasks -> start_mark_tasks t
  | Mark_root -> start_mark_root t

let start_cycle t =
  if t.phase <> Idle then invalid_arg "Cycle.start_cycle: cycle already in progress";
  t.mt_ran_this_cycle <- false;
  let with_deadlock = t.deadlock_every > 0 && t.cycles mod t.deadlock_every = 0 in
  if with_deadlock then start_mark_tasks t else start_mark_root t

let finish_cycle t =
  Mutator.set_active t.mut [];
  Mutator.set_active_flood t.mut [];
  phase_obs t Dgr_obs.Event.Restructure;
  let report =
    Restructure.run ~graph:t.g ~deadlock_checked:t.mt_ran_this_cycle
      ~reprioritize:t.env.reprioritize
      ~each_home:t.env.each_home ~verdicts:t.verdicts ()
  in
  (match report.Restructure.deadlocked with
  | [] -> ()
  | vids -> obs t (Dgr_obs.Event.Deadlock { vids }));
  obs t
    (Dgr_obs.Event.Cycle_done
       { cycle = t.cycles; garbage = report.Restructure.garbage });
  phase_obs t Dgr_obs.Event.Idle;
  t.phase <- Idle;
  t.cycles <- t.cycles + 1;
  t.last_report <- Some report;
  t.deadlocked_ever <-
    List.fold_left (fun acc v -> Vid.Set.add v acc) t.deadlocked_ever report.deadlocked;
  t.total_garbage <- t.total_garbage + report.Restructure.garbage;
  t.mr_run <- None;
  t.mt_run <- None;
  t.mr_flood <- None;
  t.mt_flood <- None;
  t.mr_h <- None;
  t.mt_h <- None;
  report

(* Credits flow in from the transport (piggybacked on data frames and
   cumulative acks, or standalone heartbeats); the detector max-merges
   them and drops wrong-epoch noise itself. *)
let learn_credit t ~pe ~epoch ~sent ~executed =
  Termination.learn t.detector ~pe ~epoch ~sent ~executed

(* Flood-scheme completion: every PE's learned credits balance and stay
   balanced (same sent total) across the detection window. *)
let flood_finished t _fl =
  Termination.observe t.detector ~now:(t.env.now ());
  Termination.terminated t.detector

let phase_finished t =
  match (t.phase, t.cycle_scheme) with
  | Idle, _ -> false
  | Mark_tasks, Tree -> (
    match t.mt_run with Some run -> run.Run.finished | None -> false)
  | Mark_root, Tree -> (
    match t.mr_run with Some run -> run.Run.finished | None -> false)
  | Mark_tasks, Flood_counters -> (
    match t.mt_flood with Some fl -> flood_finished t fl | None -> false)
  | Mark_root, Flood_counters -> (
    match t.mr_flood with Some fl -> flood_finished t fl | None -> false)

let poll t =
  match t.phase with
  | Idle -> None
  | Mark_tasks ->
    if phase_finished t then start_mark_root t;
    None
  | Mark_root -> if phase_finished t then Some (finish_cycle t) else None

let run_for_plane t = function Plane.MR -> t.mr_run | Plane.MT -> t.mt_run

let handler_for_plane t plane =
  match plane with Plane.MR -> t.mr_h | Plane.MT -> t.mt_h

let cycles_completed t = t.cycles

let last_report t = t.last_report

let deadlocked_ever t = t.deadlocked_ever

let total_garbage_collected t = t.total_garbage
