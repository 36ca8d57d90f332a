(** Per-vertex marking state for one marking process: the M_R and M_T
    planes' colour, [mt-cnt], [mt-par] and priority. The columns live
    with the vertex rows in {!Vertex}, so the per-mark transitions there
    reach them without a call per accessor; see {!Vertex.Plane}. *)

include module type of struct
  include Vertex.Plane
end
