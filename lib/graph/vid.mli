(** Vertex identifiers.

    A [Vid.t] is a dense non-negative integer index into the graph's vertex
    table. The index is recycled: a slot returned to the free list is handed
    out again, so one vid names a sequence of vertices over a run. The
    slot's generation ([Vertex.gen], raised by every [Graph.release])
    tells them apart: a reference taken at an older graph generation is
    stale once the slot's is newer. *)

type t = int

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

module Set : Set.S with type elt = t

module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
