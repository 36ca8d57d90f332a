(** The types of the per-vertex marking state: a plane's id (M_R or
    M_T), its tri-state colour and its marking-tree parent, with their
    conversions and printers. The state itself lives in the vertex
    columns and is read and written only through {!Vertex}, which takes
    the plane id; see {!Vertex.Plane}. *)

include module type of struct
  include Vertex.Plane
end
