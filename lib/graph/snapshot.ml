type vertex = {
  id : Vid.t;
  label : Label.t;
  args : Vid.t list;
  req_v : Vid.t list;
  req_e : Vid.t list;
  requested : Vertex.request_entry list;
  free : bool;
  pe : int;
  mr_color : Plane.color;
  mr_prior : int;
  mt_color : Plane.color;
}

(* [verts] holds every vertex in ascending vid order. Partitioned graphs
   stripe fresh vids across homes, so the vid space can have gaps;
   [index] maps a vid to its position (or -1). *)
type t = { root : Vid.t option; verts : vertex array; index : int array }

let snap_vertex (v : Vertex.t) =
  {
    id = (Vertex.id v);
    label = (Vertex.label v);
    args = Vertex.args v;
    req_v = (Vertex.req_v v);
    req_e = (Vertex.req_e v);
    requested = (Vertex.requested v);
    free = (Vertex.free v);
    pe = (Vertex.pe v);
    mr_color = Vertex.color v Plane.MR;
    mr_prior = Vertex.prior v Plane.MR;
    mt_color = Vertex.color v Plane.MT;
  }

let take g =
  let acc = ref [] in
  Graph.iter_all (fun v -> acc := snap_vertex v :: !acc) g;
  let verts = Array.of_list (List.rev !acc) in
  let max_vid = Array.fold_left (fun m v -> Int.max m v.id) (-1) verts in
  let index = Array.make (max_vid + 1) (-1) in
  Array.iteri (fun i v -> index.(v.id) <- i) verts;
  let root = if Graph.has_root g then Some (Graph.root g) else None in
  { root; verts; index }

let vertex t v =
  if v < 0 || v >= Array.length t.index || t.index.(v) < 0 then
    invalid_arg (Printf.sprintf "Snapshot.vertex: unknown vertex v%d" v);
  t.verts.(t.index.(v))

let size t = Array.length t.verts

let live t = Array.to_list t.verts |> List.filter (fun v -> not v.free)

let free_set t =
  Array.fold_left (fun acc v -> if v.free then Vid.Set.add v.id acc else acc) Vid.Set.empty
    t.verts
