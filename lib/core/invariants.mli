open Dgr_task

(** Checker for the marking invariants of §5.4.1.

    Given a marking run and the set of its currently-pending (spawned but
    unexecuted) mark tasks, verifies over all live vertices:

    + transient(v) ⇒ every traced child of v is transient/marked or has a
      pending mark task addressed to it;
    + marked(v) ⇒ no traced child of v is unmarked without a pending mark
      task addressed to it;
    + mt-cnt(v) equals the number of unreturned mark tasks spawned from v
      (= pending mark/return tasks crediting v, plus transient children
      whose mt-par is v — their return has not been spawned yet).

    Invariant 2 is stated here in the refined form the system actually
    maintains: the paper says "a marked vertex may never point to an
    unmarked vertex", but its own [add-reference] (Fig 4-2) transiently
    violates that reading — when both [a] and [b] are transient, the new
    edge [a→c] is justified by the mark task [b] has already spawned on
    [c] (invariant 1), and [a] may finish marking before that task
    executes. What the liveness proof (Lemma 2) actually needs is the
    disjunction "child marked ∨ transient ∨ pending mark task", which is
    what we check.

    Used by the property-based tests after every adversarial interleaving
    step. *)

val check : Run.t -> pending:Task.mark list -> string list
(** Empty when all three invariants hold. *)

val check_exn : Run.t -> pending:Task.mark list -> unit
(** Raises [Failure] with the concatenated violations. *)

val ownership_guard :
  Dgr_graph.Graph.t -> executing_pe:(unit -> int) -> Dgr_graph.Vid.t -> unit
(** A {!Mutator.t} guard asserting the ownership discipline the sharded
    engine relies on: a task executing at PE [p] (as reported by
    [executing_pe ()]) only mutates vertices with [Vertex.pe = p].
    Controller execution ([executing_pe () < 0]) and vertices born in the
    current {!Dgr_graph.Graph.epoch} (template slots the executing PE
    just allocated) are exempt. Raises [Failure] on a violation.
    Installed by [Engine.enable_ownership_checks]. *)
