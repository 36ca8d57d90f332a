open Dgr_util
open Dgr_graph
open Dgr_task

type order = Fifo | Lifo | Random of Rng.t

type t = {
  g : Graph.t;
  tasks : Task.mark Vec.t;
  order : order;
  mutable head : int;  (** Fifo consumption index into [tasks] *)
  mutable mr : Run.t option;
  mutable mt : Run.t option;
  mut : Mutator.t;
  mutable executed : int;
}

let create ?(order = Fifo) g =
  let mut = Mutator.create ~spawn:(fun _ _ _ -> ()) g in
  let t =
    { g; tasks = Vec.create (); order; head = 0; mr = None; mt = None; mut; executed = 0 }
  in
  mut.Mutator.spawn <- Task.sink_of (Vec.push t.tasks);
  t

let graph t = t.g

let mutator t = t.mut

let run_for t plane =
  match (plane, t.mr, t.mt) with
  | Plane.MR, Some r, _ -> r
  | Plane.MT, _, Some r -> r
  | (Plane.MR | Plane.MT), _, _ ->
    invalid_arg "Sync_engine: task for a run that was never started"

let active_runs t = List.filter_map Fun.id [ t.mr; t.mt ]

let start t variant ~seeds =
  let run = Run.create t.g variant in
  (match run.Run.plane with
  | Plane.MR -> t.mr <- Some run
  | Plane.MT -> t.mt <- Some run);
  Mutator.set_active t.mut (active_runs t);
  List.iter
    (fun v ->
      Run.seed_added run;
      Vec.push t.tasks (Marker.seed_for run v))
    seeds;
  Run.check_trivially_finished run;
  run

(* Queue compaction for the Fifo case: consumed entries are skipped via
   [head] and physically dropped when they dominate the buffer. *)
let compact t =
  if t.head > 64 && t.head * 2 > Vec.length t.tasks then begin
    let remaining = ref [] in
    for i = Vec.length t.tasks - 1 downto t.head do
      remaining := Vec.get t.tasks i :: !remaining
    done;
    Vec.clear t.tasks;
    List.iter (Vec.push t.tasks) !remaining;
    t.head <- 0
  end

let take t =
  if t.head >= Vec.length t.tasks then None
  else
    match t.order with
    | Fifo ->
      let task = Vec.get t.tasks t.head in
      t.head <- t.head + 1;
      compact t;
      Some task
    | Lifo -> Vec.pop t.tasks
    | Random rng ->
      let i = t.head + Rng.int rng (Vec.length t.tasks - t.head) in
      Some (Vec.swap_remove t.tasks i)

let pending t =
  let acc = ref [] in
  for i = Vec.length t.tasks - 1 downto t.head do
    acc := Vec.get t.tasks i :: !acc
  done;
  !acc

let step t =
  match take t with
  | None -> false
  | Some task ->
    t.executed <- t.executed + 1;
    let run = run_for t (Task.plane_of_mark task) in
    Task.emit_mark (Marker.execute run ~pe:0 ~emit:t.mut.Mutator.spawn) task;
    true

let drain ?interleave ?(max_steps = 10_000_000) t =
  let start = t.executed in
  let continue = ref true in
  while !continue do
    (match interleave with Some f -> f t.executed | None -> ());
    if not (step t) then continue := false
    else if t.executed - start > max_steps then begin
      let run_state =
        match active_runs t with
        | [] -> "no active run"
        | runs ->
          String.concat "; "
            (List.map (fun r -> Format.asprintf "%a" Run.pp r) runs)
      in
      failwith
        (Printf.sprintf
           "Sync_engine.drain: exceeded max_steps=%d after %d steps with %d \
            tasks queued (%s) — marking diverged?"
           max_steps (t.executed - start)
           (Vec.length t.tasks - t.head)
           run_state)
    end
  done;
  t.executed - start

let mark ?order g variant ~seeds =
  let t = create ?order g in
  let run = start t variant ~seeds in
  let (_ : int) = drain t in
  run
