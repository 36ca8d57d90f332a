open Dgr_util

(** The fault plane: seeded injection of network and PE faults.

    The paper argues the marking algorithm correct over an idealized
    network — every task eventually delivered, exactly once (§2.1). This
    module is the adversary that breaks that assumption in controlled,
    reproducible ways: message frames are dropped, duplicated or delayed
    as they transit {!Network}, and PEs transiently stall (crash-restart
    with memory preserved — the PE stops executing for a while; its pool
    and heap survive). The reliable-delivery layer in {!Network} must
    then re-earn the exactly-once-effect guarantee the marking and
    reduction planes rely on.

    Beyond stalls, a PE can {e crash}: its task pool, its striped vertex
    segment and every frame in flight on links touching it (both
    directions) are lost, and the PE stays down for a seeded number of
    steps before recovering empty-handed. The engine owns the recovery
    machinery (per-PE incremental checkpoints, vid re-homing to the
    survivors, mark-wave restart — see {!Dgr_sim.Engine}); this module
    only rolls the dice and carries the knobs. Crash assumptions: at
    least one PE always survives (a crash that would down the last
    standing PE is suppressed), crashed memory is fail-stop (never
    corrupt, simply gone), and a crashed segment recovers as it stood at
    the top of the crash step (a step on which two or more PEs crash
    restores each from a checkpoint synced before its first crash), so
    no acknowledged graph state is ever rolled back.

    All randomness comes from [fault_seed], on streams separate from the
    engine's scheduling seed, so a (config, seed, fault-spec) triple
    replays byte-identically and fault rates can vary without perturbing
    the fault-free schedule. *)

type spec = {
  drop : float;  (** P(a frame in transit is lost) *)
  duplicate : float;  (** P(a frame is delivered twice) *)
  delay : float;  (** P(a frame takes extra, seeded delay — reordering) *)
  stall : float;  (** per-PE, per-step P(a transient stall begins) *)
  stall_max : int;  (** longest stall, in steps; at least 1 ({!Engine.Config} refuses less) *)
  crash : float;  (** per-PE, per-step P(a whole-PE crash begins) *)
  crash_down_max : int;
      (** longest downtime after a crash, in steps; at least 1 ({!Engine.Config}
          refuses less) *)
  fault_seed : int;
}

val none : spec
(** All probabilities zero: the idealized network. *)

val active : spec -> bool
(** Whether any fault probability is positive. *)

type t = {
  spec : spec;
  net_rng : Rng.t;  (** rolls for frame faults, in transmission order *)
  stall_rng : Rng.t;  (** rolls for PE stalls, one per (step, pe) *)
  crash_rng : Rng.t;
      (** rolls for PE crashes, one per (step, up PE); an independent
          stream so crash rates never perturb the net/stall schedules *)
  mutable drops : int;
  mutable dups : int;
  mutable delays : int;
  mutable retransmits : int;  (** counted by {!Network} *)
  mutable dup_suppressed : int;  (** redeliveries swallowed by dedup *)
  mutable stalls : int;
  mutable stall_steps : int;  (** execution steps lost to stalls *)
}

val create : spec -> t

val drops_frame : t -> bool
(** Roll the drop fault for one frame transmission; counts on hit. *)

val duplicates_frame : t -> bool

val extra_delay : t -> latency:int -> int
(** [0] on a miss; [1 + uniform latency] extra steps on a hit (counted). *)

val stall_begins : t -> pe:int -> bool
(** Roll the stall fault for one (step, PE); counting is the caller's
    job (it knows the drawn length). [pe] is accepted for clarity only —
    the roll order (engine iterates PEs in order) is what keeps the
    stream deterministic. *)

val stall_length : t -> int
(** [1 + uniform stall_max] steps. *)

val crash_begins : t -> pe:int -> bool
(** Roll the crash fault for one (step, up PE). As with stalls, [pe] is
    documentation — the engine's ascending-PE roll order is what keeps
    the stream deterministic at every domain count. *)

val down_length : t -> int
(** [1 + uniform crash_down_max] steps of downtime. *)
