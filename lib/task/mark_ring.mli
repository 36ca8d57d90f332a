(** A growable ring of marks held as lanes ({!Task.sink}), three ints per
    slot: push and take are O(1) and allocate nothing once the ring has
    grown. The PEs' pools and the synchronous marking engine both queue
    their marks here. *)

type t

val create : unit -> t

val length : t -> int

val push : t -> int -> int -> int -> unit
(** Queue the mark [v par meta] as the newest. *)

val push_marks : t -> int array -> int -> unit
(** [push_marks r a n] queues, oldest first, the marks held in the first
    [n] lanes of [a], three per task as [v par meta]; a slot whose meta
    lane is negative holds no mark and is skipped. One call per frame
    on the delivery path. *)

val drain : t -> budget:int -> Task.sink -> int
(** Take up to [budget] marks, oldest first, each into the sink, and
    return how many were taken. As with {!pop_with}, the sink may push.
    One call per PE budget on the engine's execution path. *)

val pop_with : t -> Task.sink -> bool
(** Take the oldest mark into the sink; [false] (and no call) when empty.
    The ring is updated before the sink runs, so the sink may push. *)

val take_with : t -> int -> Task.sink -> unit
(** [take_with r i f] takes the [i]-th oldest mark into [f] and moves the
    newest into its slot: a vector's swap-remove, oldest first. Raises
    [Invalid_argument] unless [0 <= i < length r]. As with {!pop_with},
    [f] may push. *)

val to_list : t -> Task.mark list
(** The queued marks as views, oldest first. *)

val filter_in_place : (Task.mark -> bool) -> t -> unit
(** Keep the marks the predicate accepts, in order. *)
