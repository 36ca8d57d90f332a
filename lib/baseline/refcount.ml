open Dgr_graph

type t = {
  g : Graph.t;
  mutable counts : int array;  (* by vid; 0 past the end *)
  children : int Dgr_util.Vec.t;
      (* the args of the vertices being released, a stack shared by the
         nested calls of one cascade *)
  mutable reclaimed : int;
  mutable messages : int;
}

let count t v = if v < Array.length t.counts then Array.unsafe_get t.counts v else 0

let set t v n =
  let len = Array.length t.counts in
  if v >= len then t.counts <- Array.append t.counts (Array.make (Int.max (v + 1 - len) len) 0);
  t.counts.(v) <- n

let create g =
  let t =
    { g; counts = [||]; children = Dgr_util.Vec.create (); reclaimed = 0; messages = 0 }
  in
  (* Adopt edges that existed before the collector was attached (the
     initial program graph). *)
  Graph.iter_live
    (fun v -> List.iter (fun c -> set t c (count t c + 1)) (Vertex.args v))
    g;
  t

let tally_message t parent child =
  if
    Graph.mem t.g parent && Graph.mem t.g child
    && Graph.pe t.g parent <> Graph.pe t.g child
  then t.messages <- t.messages + 1

let on_connect t parent child =
  tally_message t parent child;
  set t child (count t child + 1)

let is_root t v = Graph.has_root t.g && Vid.equal (Graph.root t.g) v

(* The release empties the vertex's args, so they are copied onto the
   [children] stack first; a nested release pushes above them and pops
   back before returning. *)
let rec release t v =
  let vx = Graph.vertex t.g v in
  if not (Vertex.free vx) then begin
    let st = t.children in
    let base = Dgr_util.Vec.length st in
    for i = 0 to Vertex.arg_count vx - 1 do
      Dgr_util.Vec.push st (Vertex.arg vx i)
    done;
    let top = Dgr_util.Vec.length st in
    t.reclaimed <- t.reclaimed + 1;
    Graph.release t.g v;
    set t v 0;
    for k = base to top - 1 do
      let c = Dgr_util.Vec.get st k in
      tally_message t v c;
      decrement t c
    done;
    Dgr_util.Vec.truncate st base
  end

and decrement t v =
  let n = count t v - 1 in
  if n < 0 then ()
  else begin
    set t v n;
    if n = 0 && not (is_root t v) then release t v
  end

let on_disconnect t parent child =
  tally_message t parent child;
  decrement t child

let pin t v = set t v (count t v + 1)

let unpin t v = decrement t v

let reclaimed t = t.reclaimed

let messages t = t.messages

let leaked t =
  let snap = Snapshot.take t.g in
  let reachable =
    if Graph.has_root t.g then Dgr_analysis.Reach.reachable_from snap [ Graph.root t.g ]
    else Vid.Set.empty
  in
  Graph.fold_live
    (fun acc v ->
      if (not (Vid.Set.mem (Vertex.id v) reachable)) && count t (Vertex.id v) > 0 then
        (Vertex.id v) :: acc
      else acc)
    [] t.g
  |> List.rev
