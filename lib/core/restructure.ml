open Dgr_graph

type report = {
  garbage : int;
  deadlocked : Vid.t list;
  deadlock_checked : bool;
  reprioritized : int;
}

(* The verdict pass for one home partition: read-only over the planes,
   touching only [pe]'s slots, so every home can run concurrently.
   Lists are built by prepending over the ascending-vid slot walk —
   deterministic per home, and the caller walks homes in fixed PE
   order, so the merged verdict is identical at every domain count. *)
let collect_home g ~deadlock_checked ~pe =
  let gar = ref [] and dl = ref [] in
  Graph.iter_home g ~pe (fun v ->
      if not (Vertex.free v) then begin
        if Vertex.unmarked v Plane.MR then gar := Vertex.id v :: !gar
        else if
          deadlock_checked && Vertex.marked v Plane.MR
          && Vertex.prior v Plane.MR = 3
          && not (Vertex.marked v Plane.MT)
        then dl := Vertex.id v :: !dl
      end);
  (!gar, !dl)

(* GAR' membership, read from the slot: [collect_home]'s garbage
   predicate. Between the verdict and the releases nothing writes a
   plane or frees a slot, so any home may ask about any vid. *)
let in_gar g v =
  Graph.mem g v
  &&
  let vx = Graph.vertex g v in
  (not (Vertex.free vx)) && Vertex.unmarked vx Plane.MR

(* Owner-local bookkeeping on one home's survivors: requester rows and
   scheduling priorities live on the vertex itself, so this pass is also
   safe per home. A survivor is a live slot whose M_R colour is not
   unmarked; only those with requesters pay for the filter. *)
let persist_home g ~pe =
  let keep r = not (in_gar g r) in
  Graph.iter_home g ~pe (fun v ->
      if (not (Vertex.free v)) && not (Vertex.unmarked v Plane.MR) then begin
        if Vertex.requested_count v > 0 then Vertex.retain_requesters v keep;
        (* Persist the cycle's priority verdict for pool scheduling. *)
        if Vertex.marked v Plane.MR then Vertex.set_sched_prior v (Vertex.prior v Plane.MR)
      end)

let serial_each_home g f =
  for pe = 0 to Graph.num_pes g - 1 do
    f pe
  done

let run ~graph:g ~deadlock_checked ~reprioritize ?each_home () =
  let each_home = match each_home with Some f -> f | None -> serial_each_home g in
  let pes = Graph.num_pes g in
  let gar_by = Array.make pes [] and dl_by = Array.make pes [] in
  each_home (fun pe ->
      let gar, dl = collect_home g ~deadlock_checked ~pe in
      gar_by.(pe) <- gar;
      dl_by.(pe) <- dl);
  let dl = List.concat (Array.to_list dl_by) in
  each_home (fun pe -> persist_home g ~pe);
  (* Releases stay serial and in the verdict's order (PE order, then
     each home's list), so the free lists come out the same. Each raises
     its slot's generation: every task with an endpoint in GAR' —
     Property 6's irrelevant tasks among them — is stale from here on,
     and dies where it is next handled; the engine's [reprioritize] drops
     the pooled ones. *)
  Array.iter (List.iter (Graph.release g)) gar_by;
  let moved = reprioritize () in
  Graph.reset_plane g Plane.MR;
  Graph.reset_plane g Plane.MT;
  {
    garbage = Array.fold_left (fun n gar -> n + List.length gar) 0 gar_by;
    deadlocked = dl;
    deadlock_checked;
    reprioritized = moved;
  }
