(** Per-vertex marking state for one marking process.

    Each vertex carries two independent planes — one for M_R (marking from
    the root) and one for M_T (marking from tasks) — because deadlock
    detection compares the two results (DL' = R'_v − T', §5.4) and the
    paper requires their bits to be distinct (§5.2).

    A plane holds the tri-state colour (unmarked / transient / marked,
    §4.1), the outstanding-mark-task counter [mt-cnt], the marking-tree
    parent [mt-par], and — for M_R only — the priority with which the
    vertex was traced (3 = vital, 2 = eager, 1 = reserve; §5.1).

    Plane state lives in struct-of-arrays columns owned by the graph's
    storage chunks; {!t} is a cheap handle (column set + slot offset) and
    all access goes through the functions below. *)

type color = Unmarked | Transient | Marked

type parent = Rootpar | Parent of Vid.t
(** [Rootpar] is the paper's dummy node used by [return1] to detect
    termination of the whole marking process. *)

type id = MR | MT

type cols
(** One plane's columns for a whole storage chunk: colour bytes plus
    cnt/par/prior cells, one slot each per vertex. *)

type t
(** A handle onto one slot of a column set. *)

val make_cols : int -> cols
(** Pristine (unmarked, zeroed) columns for [n] slots. *)

val reset_cols : cols -> unit
(** Reset every slot of the chunk to the pristine state — the column-wise
    bulk form of {!reset}, used by [Graph.reset_plane]. O(1): the chunk
    carries a per-slot epoch column and a current-epoch counter; the
    reset bumps the counter, stale slots read as pristine, and a slot is
    lazily re-zeroed the first time the new wave writes it. *)

val handle : cols -> int -> t

val create : unit -> t
(** A standalone single-slot plane (tests). *)

val color : t -> color

val set_color : t -> color -> unit

val cnt : t -> int
(** mt-cnt: spawned-but-unreturned mark tasks. *)

val set_cnt : t -> int -> unit

val par : t -> parent
(** mt-par: parent in the marking tree. *)

val par_vid : t -> int
(** {!par} as a vid, [-1] for [Rootpar] — the unboxed form the marking
    handlers read and write. *)

val set_par_vid : t -> int -> unit

val parent_of_vid : int -> parent
(** [-1] (any negative) is [Rootpar]. *)

val vid_of_parent : parent -> int

val prior : t -> int
(** 0 when unmarked; 1..3 once traced (M_R). *)

val set_prior : t -> int -> unit

val reset : t -> unit
(** Return the plane to the pristine unmarked state (between cycles). *)

val unmarked : t -> bool

val transient : t -> bool

val marked : t -> bool

val touch : t -> unit
(** unmarked/marked -> transient (paper's [touch]). *)

val mark : t -> unit
(** -> marked (paper's [mark]). *)

val unmark : t -> unit
(** -> unmarked, clearing priority. *)

type shot = {
  mutable s_color : color;
  mutable s_cnt : int;
  mutable s_par : int;  (** the parent vid, -1 for [Rootpar] *)
  mutable s_prior : int;
}
(** A boxed copy of one slot's plane state (checkpointing); mutable so
    incremental checkpoints can refresh shots in place. *)

val capture : t -> shot

val recapture : shot -> t -> unit
(** [recapture s t] overwrites [s] with [t]'s current plane state — the
    allocation-free refresh of an existing {!capture}. *)

val matches : shot -> t -> bool

val restore : shot -> t -> unit

val pp_parent : Format.formatter -> parent -> unit

val pp_id : Format.formatter -> id -> unit

val pp : Format.formatter -> t -> unit
