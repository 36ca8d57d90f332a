(** The distributed computation graph.

    A dense vertex table plus the free list [F] of §2.2. Vertices are
    assigned to processing elements (the partition of §2) at allocation
    time, round-robin by default. The graph itself is a passive store —
    task semantics live in [Dgr_core] and [Dgr_reduction]. *)

type t

exception Out_of_vertices
(** Raised by [alloc] when the free list is empty and the capacity is
    reached — §2.2's V is finite; new vertices come only from F. *)

val create : ?num_pes:int -> unit -> t
(** [create ~num_pes ()] is an empty graph partitioned over [num_pes]
    processing elements (default 1), with unbounded capacity. *)

val set_capacity : t -> int option -> unit
(** Bound (or unbound) the vertex-table size. Raises [Invalid_argument]
    if the bound is below the current table size. *)

val capacity : t -> int option

val headroom : t -> int
(** Vertices allocatable before [Out_of_vertices]: |F| plus remaining
    table growth. [max_int] when unbounded. On a partitioned graph this
    sums every home's headroom and is only meaningful serially. *)

val partition : t -> pes:int -> unit
(** Switch the graph to partitioned storage: each of the [pes] home PEs
    gets its own free list, its own striped segment of fresh vids
    ([base + k*pes + home]) and a [1/pes] share of the capacity budget,
    so allocations by distinct PEs touch disjoint mutable state (the
    local stores of the paper's autonomous PEs). The existing dense
    prefix keeps its vids; home of a dense vid is [vid mod pes]. Called
    once by the engine; growth-by-[preallocate] is dense-only and must
    happen before. Raises [Invalid_argument] if already partitioned. *)

val partitioned : t -> bool

val headroom_for : t -> pe:int -> int
(** Allocatable slots in [pe]'s home partition (= [headroom] before
    [partition]). Safe to read from [pe]'s own domain. *)

val epoch : t -> int
(** Allocation epoch, stamped into [Vertex.birth] by [alloc]. The engine
    bumps it every step so the ownership checker can recognize
    vertices born in the current step. *)

val bump_epoch : t -> unit

val wave : t -> int
(** The mark-wave counter: bumped by every {!reset_plane}, shared by
    both planes, never decreasing (crash restores do not rewind it). A
    wave number globally identifies one marking process across
    overlapping cycles — mark tasks, termination credits and seed
    stamps are tagged with it, and a task whose wave is not the plane's
    current one is stale and must be dropped. *)

val num_pes : t -> int

val root : t -> Vid.t
(** Raises [Invalid_argument] if no root has been set. *)

val has_root : t -> bool

val set_root : t -> Vid.t -> unit

val vertex : t -> Vid.t -> Vertex.t
(** Raises [Invalid_argument] on an out-of-range id. *)

val mem : t -> Vid.t -> bool

(** {2 Vid-keyed scalar accessors}

    One slot lookup, no allocation — the step loop reads vertex state
    through these instead of materializing intermediate structure. *)

val label : t -> Vid.t -> Label.t

val is_free : t -> Vid.t -> bool

val sched_prior : t -> Vid.t -> int

val pe : t -> Vid.t -> int
(** The owning PE of a vertex: [Vertex.pe (vertex t v)] in one call,
    read from the chunk's PE column without loading the vertex's handle
    — the per-send destination lookup. *)

val alloc : ?pe:int -> ?from:int -> t -> Label.t -> Vertex.t
(** Acquire a vertex from the free list (or grow the table if [F] is
    empty), assign it to a PE and label it. The returned vertex has no
    edges. On a partitioned graph, [from] names the allocating PE and
    selects the home partition (fresh vertices default to [pe = from] —
    allocation is from the local store); before [partition], PEs are
    assigned round-robin and [from] is ignored. *)

val release : t -> Vid.t -> unit
(** Reset the vertex and return it to the free list (the restructuring
    phase's "add elements of GAR to F"). Raises [Invalid_argument] if the
    vertex is already free. *)

val preallocate : t -> int -> unit
(** Grow the table by [n] vertices placed directly on the free list. *)

val children : t -> Vid.t -> Vid.t list
(** [args] of the vertex, as a fresh list — cold paths only. *)

val iter_children : t -> Vid.t -> (Vid.t -> unit) -> unit
(** Visit [args] of the vertex in order. Does not allocate. *)

val vertex_count : t -> int
(** Total table size |V| (live + free). *)

val free_count : t -> int
(** |F|. *)

val live_count : t -> int

val free_list : t -> Vid.t list

val home_of_vid : t -> Vid.t -> int
(** The home PE of a vid: [vid mod pes] in the dense prefix, the stripe
    index past it. Defined for any vid shape, partitioned or not. *)

val iter_home : t -> pe:int -> (Vertex.t -> unit) -> unit
(** Visit every slot homed at [pe] — live and free alike — in ascending
    vid order. This is the slice a crash loses and a checkpoint covers. *)

val home_free_list : t -> pe:int -> Vid.t list
(** [pe]'s home free list, in pop order (LIFO: last element pops first on
    the partitioned path). *)

val iter_home_free : t -> pe:int -> (Vid.t -> unit) -> unit
(** Visit [pe]'s home free list in the same order as {!home_free_list},
    without allocating it — the form checkpoint sync uses. *)

val set_home_free_list : t -> pe:int -> Vid.t list -> unit
(** Overwrite [pe]'s home free list (crash-recovery restore). Partitioned
    graphs only; raises [Invalid_argument] otherwise. Vertex [free] flags
    are the caller's responsibility. *)

val grow_home : t -> pe:int -> Vid.t
(** Append one fresh free slot to [pe]'s striped segment (without putting
    it on the free list) and return its vid — the next vid [alloc] would
    have created for that home. Lets a checkpoint restore rebuild a
    segment inside a fresh graph. Partitioned graphs only. *)

val iter_live : (Vertex.t -> unit) -> t -> unit

val iter_all : (Vertex.t -> unit) -> t -> unit

val live_vids : t -> Vid.t list

val fold_live : ('a -> Vertex.t -> 'a) -> 'a -> t -> 'a

val reset_plane : t -> Plane.id -> unit
(** Unmark every vertex's plane (between marking cycles) and bump
    {!wave}. O(storage chunks), not O(vertices): the plane columns carry
    per-chunk epochs and stale slots read as pristine, so the reset is a
    counter bump and the old wave's bits become invisible instantly. *)

val releases : t -> int
(** Cumulative number of [release] calls. *)
