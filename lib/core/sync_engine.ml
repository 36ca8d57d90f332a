open Dgr_util
open Dgr_graph
open Dgr_task

type order = Fifo | Lifo | Random of Rng.t

type t = {
  g : Graph.t;
  ring : Mark_ring.t;
  order : order;
  mutable mr : Cycle.handler option;
  mutable mt : Cycle.handler option;
  mut : Mutator.t;
  exec : Task.sink;  (** [dispatch] bound to this engine *)
  mutable executed : int;
}

let dispatch t v par meta =
  t.executed <- t.executed + 1;
  let emit = t.mut.Mutator.spawn in
  match (Task.meta_plane meta, t.mr, t.mt) with
  | Plane.MR, Some h, _ | Plane.MT, _, Some h -> (
    match h with
    | Cycle.Tree_run run -> Marker.execute run ~pe:0 ~emit v par meta
    | Cycle.Flood_run fl -> Flood.execute fl ~pe:0 ~emit v par meta)
  | (Plane.MR | Plane.MT), _, _ ->
    invalid_arg "Sync_engine: task for a run that was never started"

let create ?(order = Fifo) g =
  let ring = Mark_ring.create () in
  let mut = Mutator.create ~spawn:(Mark_ring.push ring) g in
  let rec t =
    { g; ring; order; mr = None; mt = None; mut; exec = (fun v p m -> dispatch t v p m);
      executed = 0 }
  in
  t

let graph t = t.g

let mutator t = t.mut

let handlers t = List.filter_map Fun.id [ t.mr; t.mt ]

(* Install [h] in its plane's slot and tell the mutator which runs and
   floods now need cooperation. *)
let install t plane h =
  (match plane with Plane.MR -> t.mr <- Some h | Plane.MT -> t.mt <- Some h);
  let runs, floods =
    List.partition_map
      (function Cycle.Tree_run r -> Left r | Cycle.Flood_run f -> Right f)
      (handlers t)
  in
  Mutator.set_active t.mut runs;
  Mutator.set_active_flood t.mut floods

let start t variant ~seeds =
  let run = Run.create t.g variant in
  install t run.Run.plane (Cycle.Tree_run run);
  let meta = Marker.seed_meta run in
  List.iter
    (fun v ->
      Run.seed_added run;
      Mark_ring.push t.ring v (-1) meta)
    seeds;
  Run.check_trivially_finished run;
  run

let start_flood t variant ~seeds =
  let fl = Flood.create t.g variant in
  install t fl.Flood.plane (Cycle.Flood_run fl);
  let meta = Flood.seed_meta fl in
  List.iter
    (fun v ->
      Flood.count_seed fl ~pe:0;
      Mark_ring.push t.ring v (-1) meta)
    seeds;
  fl

let pending t = Mark_ring.to_list t.ring

let step t =
  let n = Mark_ring.length t.ring in
  match t.order with
  | _ when n = 0 -> false
  | Fifo -> Mark_ring.pop_with t.ring t.exec
  | Lifo ->
    Mark_ring.take_with t.ring (n - 1) t.exec;
    true
  | Random rng ->
    Mark_ring.take_with t.ring (Rng.int rng n) t.exec;
    true

let drain ?interleave ?(max_steps = 10_000_000) t =
  let start = t.executed in
  let continue = ref true in
  while !continue do
    (match interleave with Some f -> f t.executed | None -> ());
    if not (step t) then continue := false
    else if t.executed - start > max_steps then begin
      let describe = function
        | Cycle.Tree_run r -> Format.asprintf "%a" Run.pp r
        | Cycle.Flood_run f -> Printf.sprintf "flood: %d outstanding" (Flood.outstanding f)
      in
      failwith
        (Printf.sprintf
           "Sync_engine.drain: exceeded max_steps=%d after %d steps with %d \
            tasks queued (%s) — marking diverged?"
           max_steps (t.executed - start) (Mark_ring.length t.ring)
           (String.concat "; " (List.map describe (handlers t))))
    end
  done;
  t.executed - start

let mark ?order g variant ~seeds =
  let t = create ?order g in
  let run = start t variant ~seeds in
  let (_ : int) = drain t in
  run
