(* Per-PE incremental checkpoint of a home slice of the graph, for crash
   recovery. One checkpoint watches one home PE: every slot homed there
   (dense-prefix vids with [vid mod pes = home] plus the whole striped
   segment), live and free alike, and the home free list. [sync] is
   incremental — it rewrites only the entries whose vertex changed since
   the last sync, tagging each rewritten entry with the step it was
   captured at — so steady-state cost is proportional to churn, not to
   segment size. [restore] writes the captured state back, rebuilding
   missing striped slots when restoring into a fresh graph.

   Entries hold [Vertex.Cells] shots: flat column-slice copies of one
   slot's state (scalar cells, plane cells, and the row prefixes), so
   capture/compare/restore are array blits and never traverse lists. *)

type entry = {
  mutable e_step : int;  (* step the shot below was captured at *)
  mutable e_shot : Vertex.Cells.shot;
}

type t = {
  g : Graph.t;
  home : int;
  entries : (Vid.t, entry) Hashtbl.t;
  free : Vid.t Dgr_util.Vec.t;  (* home free list, pop order *)
  mutable last_sync : int;  (* step of the latest sync; -1 = never *)
}

let create g ~pe =
  {
    g;
    home = pe;
    entries = Hashtbl.create 64;
    free = Dgr_util.Vec.create ();
    last_sync = -1;
  }

let last_sync t = t.last_sync

let entry_count t = Hashtbl.length t.entries

let step_of t vid =
  match Hashtbl.find_opt t.entries vid with None -> None | Some e -> Some e.e_step

(* The engine syncs on every step on which two or more PEs crash, which
   at high crash rates is most of them, so the quiet path must not
   allocate: entry
   lookups use [Hashtbl.find] (no option box), unchanged entries refresh
   in place via [Cells.recapture], and the free list is re-filled into a
   retained vector. *)
let sync t ~now =
  let n = ref 0 in
  Graph.iter_home t.g ~pe:t.home (fun v ->
      match Hashtbl.find t.entries (Vertex.id v) with
      | e ->
        if not (Vertex.Cells.matches e.e_shot v) then begin
          e.e_step <- now;
          Vertex.Cells.recapture e.e_shot v;
          incr n
        end
      | exception Not_found ->
        Hashtbl.replace t.entries (Vertex.id v)
          { e_step = now; e_shot = Vertex.Cells.capture v };
        incr n);
  Dgr_util.Vec.clear t.free;
  Graph.iter_home_free t.g ~pe:t.home (fun v -> Dgr_util.Vec.push t.free v);
  t.last_sync <- now;
  !n

let restore ?into t =
  if t.last_sync < 0 then invalid_arg "Checkpoint.restore: never synced";
  let g = match into with Some g -> g | None -> t.g in
  (* Rebuild any checkpointed striped slot the target lacks (restoring
     into a fresh graph): grow_home appends slots in exactly the vid
     order alloc would have created them. *)
  let max_vid = Hashtbl.fold (fun vid _ m -> Int.max vid m) t.entries (-1) in
  while max_vid >= 0 && not (Graph.mem g max_vid) do
    let id = Graph.grow_home g ~pe:t.home in
    if id > max_vid then
      invalid_arg "Checkpoint.restore: target graph partition shape mismatch"
  done;
  (* Slots born after the last sync are unknown to the checkpoint: the
     crash loses them, so they come back as free slots appended (in vid
     order) behind the checkpointed free list. *)
  let extras = ref [] in
  Graph.iter_home g ~pe:t.home (fun v ->
      match Hashtbl.find_opt t.entries (Vertex.id v) with
      | Some e -> Vertex.Cells.restore e.e_shot v
      | None ->
        Vertex.reset_for_free v;
        extras := Vertex.id v :: !extras);
  let base = Dgr_util.Vec.to_list t.free in
  Graph.set_home_free_list g ~pe:t.home (base @ List.rev !extras)
