let vertex_attrs (v : Vertex.t) is_root =
  let shape = if is_root then "doublecircle" else "circle" in
  let fill =
    match Vertex.color v Plane.MR with
    | Plane.Marked -> "gray70"
    | Plane.Transient -> "gray90"
    | Plane.Unmarked -> "white"
  in
  Printf.sprintf "shape=%s style=filled fillcolor=%s label=\"v%d\\n%s\"" shape fill (Vertex.id v)
    (String.escaped (Label.to_string (Vertex.label v)))

let to_string ?(name = "g") g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  let root = if Graph.has_root g then Some (Graph.root g) else None in
  Graph.iter_live
    (fun v ->
      let is_root = match root with Some r -> Vid.equal r (Vertex.id v) | None -> false in
      Buffer.add_string buf (Printf.sprintf "  n%d [%s];\n" (Vertex.id v) (vertex_attrs v is_root));
      List.iter
        (fun c ->
          let annot =
            if List.exists (Vid.equal c) (Vertex.req_v v) then " [label=\"*v\"]"
            else if List.exists (Vid.equal c) (Vertex.req_e v) then " [label=\"*e\"]"
            else ""
          in
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" (Vertex.id v) c annot))
        (Vertex.args v);
      List.iter
        (fun (e : Vertex.request_entry) ->
          match e.Vertex.who with
          | Some r -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [style=dashed];\n" (Vertex.id v) r)
          | None -> ())
        (Vertex.requested v))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_file ?name g path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?name g))
