open Dgr_graph
open Dgr_task

(** Compact ("flood") marking — the space optimization of §6.

    "The algorithms as presented incur a high space overhead, in that
    each vertex requires space for mt-cnt, mt-par, and marking bits …
    it is possible to combine all of the mt-cnt's and mt-par's into just
    two words on each PE."

    This variant builds no marking tree and sends no return tasks:
    a mark task on an unmarked vertex marks it {e immediately} and
    spawns mark tasks on its traced children; a mark task on a marked
    vertex dies. The per-vertex bookkeeping collapses to the colour (and
    priority, for M_R); completion is detected by counting — each PE
    keeps two words, mark tasks sent and mark tasks executed
    ({!Termination} turns the counter sums into a sound verdict).

    Cooperation is simpler than the tree scheme's (no counts to keep
    consistent): whenever a mutation gives a {e marked} vertex a new
    traced child, spawn a (counted) mark task on the child. The tree
    scheme's three-state invariants degenerate to: marked ⇒ every traced
    child is marked or has a pending mark task.

    Trade-off measured in experiment E9: 2 words per PE instead of 2 per
    vertex and no return tasks at all, against redundant mark deliveries
    on shared vertices (every parent spawns; only the first marks) and a
    termination-detection delay at the end of each phase. *)

type t = {
  graph : Graph.t;
  plane : Plane.id;
  variant : Run.variant;
  wave : int;  (** the [Graph.wave] this flood marks under *)
  metas : int array;  (** the mark metas by priority ([Run.metas_of]) *)
  sent : int array;  (** per-PE: mark tasks spawned from this PE *)
  executed : int array;  (** per-PE: mark tasks executed on this PE *)
}

val create : Graph.t -> Run.variant -> t
(** The plane is implied by the variant, as in {!Run}; the wave is
    captured from the graph, so create the flood right after
    [Graph.reset_plane] opened its wave. *)

val execute : t -> pe:int -> emit:Task.sink -> int -> int -> int -> unit
(** Execute one mark task, given as lanes [v par meta], on PE [pe]; each
    spawned task is handed to [emit] as lanes as it is created (already
    counted as sent by [pe]) — nothing is allocated. [Return] tasks are
    rejected — this scheme never creates them. *)

val seed_meta : t -> int
(** The lane meta of a seed (and of every spawned task: the flood never
    uses mt-par, so the parent lane is always [-1]). *)

val count_seed : t -> pe:int -> unit
(** Account for a seed task injected by the controller (counted as sent
    by [pe]; use the controller's home PE, conventionally 0). *)

val sent_on : t -> pe:int -> int

val executed_on : t -> pe:int -> int
(** [sent_on] and [executed_on] are [pe]'s local counters: the credit the
    PE reports to the distributed termination detector (piggybacked on
    transport frames, or posted as heartbeats; see {!Termination}). *)

val sent_total : t -> int

val executed_total : t -> int
(** Mark tasks executed, i.e. the marking work actually run: every mark
    sent arrives and executes. *)

val outstanding : t -> int
(** [sent_total - executed_total] — mark tasks pooled or in flight. *)

val bookkeeping_words : t -> int
(** The §6 claim made measurable: words of marking bookkeeping this
    scheme needs (2 per PE), to set against the tree scheme's 2 per
    vertex. *)
