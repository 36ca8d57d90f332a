open Dgr_graph
open Dgr_task
open Task

let check run ~pending =
  let g = run.Run.graph in
  let plane_id = run.Run.plane in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Only this run's tasks are relevant: same plane, same wave (a
     stale-wave task is dead at dispatch and credits nothing). *)
  let pending =
    List.filter
      (fun m -> Task.plane_of_mark m = plane_id && Task.mark_ep m = run.Run.wave)
      pending
  in
  let pending_mark_on c =
    List.exists
      (function
        | Mark1 { v; _ } | Mark2 { v; _ } | Mark3 { v; _ } -> Vid.equal v c
        | Return _ -> false)
      pending
  in
  let credits v =
    List.length
      (List.filter
         (function
           | Mark1 { par; _ } | Mark2 { par; _ } | Mark3 { par; _ } | Return { par; _ } ->
             par = Plane.Parent v)
         pending)
  in
  let transient_children_of v =
    Graph.fold_live
      (fun acc c ->
        if Vertex.transient c plane_id && Vertex.par_vid c plane_id = v then acc + 1 else acc)
      0 g
  in
  Graph.iter_live
    (fun vx ->
      let v = Vertex.id vx in
      let transient = Vertex.transient vx plane_id and marked = Vertex.marked vx plane_id in
      for i = 0 to Vertex.child_slots vx plane_id - 1 do
        let c = Vertex.child_at vx plane_id i in
        if c >= 0 then begin
          let cv = Graph.vertex g c in
          if transient && Vertex.unmarked cv plane_id && not (pending_mark_on c) then
            err "invariant 1: transient v%d has unmarked child v%d with no pending mark" v c;
          if
            marked
            && (not (Vertex.free cv))
            && Vertex.unmarked cv plane_id
            && not (pending_mark_on c)
          then err "invariant 2: marked v%d points to unmarked v%d with no pending mark" v c
        end
      done;
      let expected = credits v + transient_children_of v in
      let cnt = Vertex.cnt vx plane_id in
      if cnt <> expected then
        err "invariant 3: v%d has mt-cnt=%d but %d unreturned tasks" v cnt expected)
    g;
  List.rev !errors

let check_exn run ~pending =
  match check run ~pending with
  | [] -> ()
  | errs -> failwith ("Invariants.check failed:\n" ^ String.concat "\n" errs)

(* Ownership discipline: a task executing at PE p mutates only vertices
   homed at p — the locality property (§2: PEs interact only by sending
   tasks) that lets the sharded engine step its PEs in any grouping and
   still merge the same graph. Exempt are the controller (pe < 0, serial
   by construction) and vertices born in the current allocation epoch:
   a template instantiated this step is wired up by its allocating PE
   before any other PE can learn the fresh vids. *)
let ownership_guard g ~executing_pe v =
  let pe = executing_pe () in
  if pe >= 0 then begin
    let vx = Graph.vertex g v in
    if
      (not (Vertex.free vx))
      && (Vertex.birth vx) < Graph.epoch g
      && (Vertex.pe vx) <> pe
    then
      failwith
        (Printf.sprintf
           "Invariants.ownership: task at PE %d mutated v%d owned by PE %d" pe v
           (Vertex.pe vx))
  end
