open Dgr_graph

(* Slot [i] of a plane's relation. M_R: the args. M_T: the requesters
   newest-first, then the args, an arg that is a req-arg standing empty.
   Every visit order below is this one. *)
let child_slots vx plane =
  if Vertex.free vx then 0
  else
    match plane with
    | Plane.MR -> Vertex.arg_count vx
    | Plane.MT -> Vertex.requested_count vx + Vertex.arg_count vx

let child_at vx plane i =
  match plane with
  | Plane.MR -> Vertex.arg vx i
  | Plane.MT ->
    let r = Vertex.requested_count vx in
    if i < r then Vertex.requester vx (r - 1 - i)
    else
      let c = Vertex.arg vx (i - r) in
      if Vertex.is_req_arg vx c then -1 else c

let children g plane v =
  let vx = Graph.vertex g v in
  let acc = ref [] in
  for i = child_slots vx plane - 1 downto 0 do
    let c = child_at vx plane i in
    if c >= 0 then acc := c :: !acc
  done;
  !acc

let iter_children g plane v f =
  let vx = Graph.vertex g v in
  for i = 0 to child_slots vx plane - 1 do
    let c = child_at vx plane i in
    if c >= 0 then f c
  done

let child_priority_of vx prior c = Int.min prior (Vertex.request_type vx c)

let child_priority g v prior c = child_priority_of (Graph.vertex g v) prior c
