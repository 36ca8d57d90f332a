open Dgr_graph

type report = { marked : int; reclaimed : int; work : int }

let collect g =
  let snap = Snapshot.take g in
  let reachable =
    if Graph.has_root g then Dgr_analysis.Reach.reachable_from snap [ Graph.root g ]
    else Vid.Set.empty
  in
  let garbage =
    Graph.fold_live
      (fun acc v -> if Vid.Set.mem (Vertex.id v) reachable then acc else (Vertex.id v) :: acc)
      [] g
  in
  let gar_set = Vid.Set.of_list garbage in
  (* Dangling requester entries, as in the concurrent restructure. *)
  Graph.iter_live
    (fun v ->
      if Vid.Set.mem (Vertex.id v) reachable then
        Vertex.retain_requesters v (fun r -> not (Vid.Set.mem r gar_set)))
    g;
  (* Each release raises its slot's generation, so a task addressing the
     garbage is stale and dies where it is next handled. *)
  List.iter (Graph.release g) garbage;
  let marked = Vid.Set.cardinal reachable in
  {
    marked;
    reclaimed = List.length garbage;
    work = marked + Graph.vertex_count g;
  }
