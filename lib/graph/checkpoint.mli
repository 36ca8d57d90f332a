(** Per-PE incremental checkpoints of the graph, for crash recovery.

    A crash (see {!Dgr_sim.Faults}) destroys a PE's home slice of the
    graph — every slot homed at it, live and free — along with its pool
    and in-flight frames. A checkpoint is the durable copy that slice is
    rebuilt from: an entry per slot capturing the full vertex state
    (label, args, req-args, requesters, received values, executing PE,
    free flag, birth epoch, scheduling priority, and both marking
    planes) plus the home free list.

    [sync] is incremental and step-tagged: it scans the slice but
    rewrites only entries whose vertex changed since the previous sync,
    stamping each rewritten entry with the capture step. The engine
    syncs every PE's checkpoint only on a step on which two or more PEs
    crash, right before its first crash and before anything in the step
    has written the graph, and restores each crashed PE from that copy:
    the first crash's re-homing writes vertices homed at the later ones,
    and the restore rewinds them. A lone crash skips both, since a
    restore right after a sync would rewrite the slice with itself. *)

type t

val create : Graph.t -> pe:int -> t
(** A checkpoint of [pe]'s home slice of the graph. Empty until the
    first {!sync}. *)

val sync : t -> now:int -> int
(** Bring the checkpoint up to date with the live graph, tagging every
    rewritten entry with step [now]. Returns the number of entries
    created or rewritten (0 on a quiet slice — the incremental case). *)

val restore : ?into:Graph.t -> t -> unit
(** Write the checkpoint back over the home slice — of the watched graph
    by default, or of [into] (a fresh graph partitioned the same way;
    missing striped slots are rebuilt with {!Graph.grow_home}). Slots
    born after the last sync are reset and appended to the free list:
    the crash lost them. Raises [Invalid_argument] if never synced, or
    if [into]'s partition shape cannot host the checkpointed vids. *)

val last_sync : t -> int
(** Step of the latest {!sync}; [-1] before the first. *)

val entry_count : t -> int

val step_of : t -> Vid.t -> int option
(** The step-tag of one slot's entry: when its captured state last
    changed. [None] if the slot has never been captured. *)
