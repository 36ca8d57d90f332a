(** Growable arrays.

    A minimal dynamic-array implementation (OCaml 5.1 predates the stdlib
    [Dynarray]); used as the backing store for the vertex table and for
    metric series. All operations are amortized O(1) unless noted. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty vector. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] raises [Invalid_argument] if [i] is out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit
(** [push v x] appends [x] at index [length v]. *)

val pop : 'a t -> 'a option
(** [pop v] removes and returns the last element, or [None] if empty. *)

val clear : 'a t -> unit
(** [clear v] sets the length to zero (does not shrink storage). *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** [filter_in_place p v] keeps only elements satisfying [p], preserving
    order. O(n). *)

val truncate : 'a t -> int -> unit
(** [truncate v n] shortens [v] to its first [n] elements in O(1);
    raises [Invalid_argument] if [n] exceeds the current length. Used to
    compact parallel vectors in lock-step. *)

val unsafe_data : 'a t -> 'a array
(** The backing array, for bulk loops that cannot afford a bounds check
    or closure per element. Only indices below [length v] hold live
    elements; the array is invalidated by any growing [push]. *)
