(** Distributed termination detection for the flood scheme's mark waves.

    The tree scheme detects completion structurally — the chain of
    [Return] tasks drains back to [Rootpar] (§2.1's exactly-once
    counting). The flood scheme has no tree, so each PE instead keeps
    two words per wave: mark tasks {e sent} from that PE and mark tasks
    {e executed} on it (§6). This detector assembles a sound global
    verdict from those per-PE counters without ever snapshotting the
    machine.

    {2 The credit protocol}

    A detector is pinned to one {e epoch} — the {!Dgr_graph.Graph.wave}
    opened when the phase's plane was reset. PEs report {e credits}:
    [(pe, epoch, sent, executed)] quadruples piggybacked on ordinary
    transport frames (data batches and their cumulative acks) plus a
    low-rate heartbeat for otherwise-silent PEs. Because the counters
    are cumulative within a wave, credits need no ordering or
    exactly-once discipline — {!learn} takes a componentwise max, so
    stale, duplicated, or reordered credits are harmless, and credits
    from another epoch are dropped outright.

    Counting alone is not sufficient: the sums can balance transiently
    while a mark task is in flight between a PE that already reported
    and one that has not (the classic counting-detector race, cf.
    Mattern's four-counter method). {!observe} therefore applies a
    two-observation rule: termination is declared only after the learned
    sums have been balanced {e with the same [sent] total} across two
    observations at least [window] steps apart, where [window] covers
    the maximum credit latency. Any imbalance restarts the wait.

    The counters themselves are only honest if a counted send executes
    exactly once. The physical channel promises at-most-once under the
    fault plane; the network's reliable-delivery layer (acks,
    retransmission, dedup — see [Dgr_sim.Network]) upgrades that, and
    [executed] is counted at first delivery only.

    {2 Crashes}

    A detector never survives a crash. When a PE crashes mid-wave the
    cycle controller restarts the phase under a {e new} wave
    ([Graph.reset_plane] bumps the graph wave); in-flight mark tasks and
    credits from the dead wave carry the old epoch and are dropped at
    dispatch (tasks) or by {!learn} (credits) — no machine-wide purge is
    needed, and a detector that kept pre-crash history cannot latch a
    false quiescence because the restarted phase's fresh detector is
    pinned to the new epoch, its counters starting at zero on every
    PE. *)

type t

val create : window:int -> epoch:int -> pes:int -> t
(** A detector for one mark wave: [epoch] is the wave tag credits must
    match, [pes] the number of per-PE counter cells, [window] the
    minimum separation (in steps) of the two quiet observations —
    at least the worst-case credit latency. *)

val epoch : t -> int

val learn : t -> pe:int -> epoch:int -> sent:int -> executed:int -> unit
(** Absorb one credit. Componentwise max per PE; idempotent; ignores
    credits whose [epoch] differs from the detector's or whose [pe] is
    out of range. *)

val observe : t -> now:int -> unit
(** One observation at step [now]: if every PE has reported and the
    learned sums balance, arm (or check) the two-observation window;
    otherwise disarm it. *)

val terminated : t -> bool
(** Latched true once two qualifying observations [window] apart agree.
    Sound provided [window] is at least the maximum credit delay and
    counters only grow within the epoch. *)

val learned_sent : t -> int
(** Sum of the learned per-PE sent counters (diagnostics). *)
