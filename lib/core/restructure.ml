open Dgr_util
open Dgr_graph

type report = {
  garbage : int;
  deadlocked : Vid.t list;
  deadlock_checked : bool;
  reprioritized : int;
}

(* Per home, the verdicts' vids, in the ascending-vid order of the slot
   walk: kept by the caller and reused cycle after cycle, so a verdict
   allocates nothing once the vectors have grown. *)
type verdicts = { mutable gar : int Vec.t array; mutable dl : int Vec.t array }

let verdicts () = { gar = [||]; dl = [||] }

(* The verdict pass for one home partition: read-only over the planes,
   touching only [pe]'s slots and vectors, so no home's pass depends on
   another's. Deterministic per home, and the caller walks homes in
   fixed PE order, so the merged verdict is identical at every domain
   count. *)
let collect_into g ~deadlock_checked ~pe gar dl =
  Vec.clear gar;
  Vec.clear dl;
  Graph.iter_home g ~pe (fun v ->
      if not (Vertex.free v) then begin
        if Vertex.unmarked v Plane.MR then Vec.push gar (Vertex.id v)
        else if
          deadlock_checked && Vertex.marked v Plane.MR
          && Vertex.prior v Plane.MR = 3
          && not (Vertex.marked v Plane.MT)
        then Vec.push dl (Vertex.id v)
      end)

let collect_home g ~deadlock_checked ~pe =
  let gar = Vec.create () and dl = Vec.create () in
  collect_into g ~deadlock_checked ~pe gar dl;
  (List.rev (Vec.to_list gar), List.rev (Vec.to_list dl))

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

let run ~graph:g ~deadlock_checked ~reprioritize ?each_home ?(verdicts = verdicts ()) () =
  let each_home = match each_home with Some f -> f | None -> serial_each_home g in
  let pes = Graph.num_pes g in
  if Array.length verdicts.gar <> pes then begin
    verdicts.gar <- Array.init pes (fun _ -> Vec.create ());
    verdicts.dl <- Array.init pes (fun _ -> Vec.create ())
  end;
  let gar_by = verdicts.gar and dl_by = verdicts.dl in
  each_home (fun pe -> collect_into g ~deadlock_checked ~pe gar_by.(pe) dl_by.(pe));
  (* DL', homes in PE order and each home's vids descending. *)
  let dl = ref [] in
  for pe = pes - 1 downto 0 do
    Vec.iter (fun v -> dl := v :: !dl) dl_by.(pe)
  done;
  each_home (fun pe -> persist_home g ~pe);
  (* Releases stay serial and in the verdict's order (PE order, then
     each home's vids descending), so the free lists come out the same.
     Each raises its slot's generation: every task with an endpoint in
     GAR' — Property 6's irrelevant tasks among them — is stale from
     here on, and dies where it is next handled; the engine's
     [reprioritize] drops the pooled ones. *)
  let garbage = ref 0 in
  for pe = 0 to pes - 1 do
    let gar = gar_by.(pe) in
    for k = Vec.length gar - 1 downto 0 do
      Graph.release g (Vec.get gar k)
    done;
    garbage := !garbage + Vec.length gar
  done;
  let moved = reprioritize () in
  Graph.reset_plane g Plane.MR;
  Graph.reset_plane g Plane.MT;
  { garbage = !garbage; deadlocked = !dl; deadlock_checked; reprioritized = moved }
