(** Fixed-capacity sets of small non-negative ints, as a bitmap.

    Members are bits of 62-bit words, so walking the set in ascending
    order with {!next} costs O(words + members) and allocates nothing:
    the engine keeps its busy PEs here and visits them in PE order. *)

type t

val create : int -> t
(** [create n] is the empty set over [0 .. n - 1]. *)

val add : t -> int -> unit
(** Raises [Invalid_argument] naming an index outside [0, n). *)

val remove : t -> int -> unit
(** Raises [Invalid_argument] like {!add}. *)

val next : t -> int -> int
(** [next t i] is the smallest member [>= i], or [-1] when there is
    none. A walk [i := next t (i + 1)] may remove the member it is on. *)

val fill : t -> int array -> int
(** [fill t dst] writes the members into [dst] from index 0, ascending,
    and returns how many: one pass over the words, no search per
    member. [dst] must hold them all. *)

val clear : t -> unit
(** O(words). *)

val elements : t -> int list
(** Ascending. *)
