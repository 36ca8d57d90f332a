open Dgr_graph

(* The slot enumeration is [Vertex.child_slots]/[Vertex.child_at]; every
   visit order below is its order. *)
let children g plane v =
  let vx = Graph.vertex g v in
  let acc = ref [] in
  for i = Vertex.child_slots vx plane - 1 downto 0 do
    let c = Vertex.child_at vx plane i in
    if c >= 0 then acc := c :: !acc
  done;
  !acc

let iter_children g plane v f =
  let vx = Graph.vertex g v in
  for i = 0 to Vertex.child_slots vx plane - 1 do
    let c = Vertex.child_at vx plane i in
    if c >= 0 then f c
  done

let child_priority g v prior c = Vertex.child_priority (Graph.vertex g v) prior c
