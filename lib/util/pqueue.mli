(** Mutable min-priority queue (binary heap) with integer priorities.

    Used for PE reduction queues (lower priority value = served first)
    and the simulator's event ordering. Ties are broken by insertion order (FIFO),
    which keeps simulator runs deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> int -> 'a -> unit
(** [add q prio x] inserts [x] with priority [prio] (and tags [-1]). *)

val add_tagged : 'a t -> int -> tag:int -> aux:int -> 'a -> unit
(** [add_tagged q prio ~tag ~aux x] additionally attaches two opaque
    integers that travel with [x] (see {!min_tag}). Task pools use them
    to carry lineage tickets and send generations without boxing. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum-priority element (FIFO among ties). *)

val pop_min : 'a t -> 'a
(** {!pop}'s value, with no option or pair built: the allocation-free
    form for drain loops that test {!min_prio} first. Raises
    [Invalid_argument] on an empty queue. *)

val pop_tagged_with : 'a t -> ('a -> int -> unit) -> bool
(** [pop_tagged_with q f] pops the minimum entry and calls [f value tag];
    false (and no call) when empty. Allocates nothing — the hot-loop form
    of {!pop} for tagged entries. The heap invariant is restored before
    [f] runs, so [f] may re-enter {!add_tagged}. *)

val min_tag : 'a t -> int
val min_aux : 'a t -> int
(** The [tag] and [aux] of the entry {!pop_min} takes next ([-1] when
    empty): read them, then pop, to take an entry with both its tags
    and allocate nothing. *)

val min_prio : 'a t -> default:int -> int
(** The minimum priority in the queue, or [default] when empty — the
    allocation-free peek for threshold checks (e.g. "is the
    next arrival due?"). *)

val clear : 'a t -> unit

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** [f prio value]. Iteration order is unspecified. *)

val to_sorted_list : 'a t -> (int * 'a) list
(** Pop order without popping: ascending priority, FIFO among ties.
    O(n log n) — for deterministic external views (traces, debugging). *)

val iter_sorted_aux : (int -> 'a -> unit) -> 'a t -> unit
(** [f aux value] for every entry in {!to_sorted_list}'s order. *)

val filter_in_place : (int -> 'a -> bool) -> 'a t -> unit
(** Keep only entries satisfying the predicate. O(n log n). *)

val filter_tagged_in_place : (int -> int -> int -> 'a -> bool) -> 'a t -> unit
(** {!filter_in_place} whose predicate sees [prio tag aux value]. *)

val map_priorities : (int -> 'a -> int) -> 'a t -> unit
(** Recompute every entry's priority (rebuilds the heap; preserves FIFO
    ranks so equal-priority entries keep their relative order). *)
