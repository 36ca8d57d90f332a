open Dgr_task

(** The message network: tasks in transit between PEs, batched per link.

    Transport is frame-batched in both regimes: every task {!send}-ed to
    the same (src, dst) link for the same arrival step rides in one
    frame, staged until the next {!deliver_into} tick flushes it into
    the channel. Batching is a refinement of the paper's
    one-task-per-message model below task granularity — each task keeps
    its fault-free arrival step and per-link FIFO order; only the
    grouping into physical frames (and hence per-frame bookkeeping:
    arrival events, pending entries, retransmit timers, acks) changes.

    Without a fault plane, delivery is the paper's idealized channel:
    batches become available at their arrival step and drain in stage
    order among equals, exactly once.

    With a fault plane ({!Faults.t}), batches ride in data frames over
    an at-most-once channel — any physical transmission may be dropped,
    duplicated or delayed, and a dropped batch retransmits as a unit. A
    reliable-delivery layer re-earns the exactly-once effect the marking
    and reduction planes assume: per-(sender, destination) sequence
    numbers, {e cumulative} acks (the highest contiguous sequence per
    link, piggybacked on a reverse-direction data frame when one is
    already flushing, standalone otherwise), retransmission on timeout
    with exponential backoff (initial RTO [2·delay + 2], doubling per
    attempt, capped), and receiver-side dedup on (src, dst, seq).
    Everything is driven by the fault plane's own seeded streams, so a
    (config, seed, fault-spec) triple replays byte-identically.

    Staging also {e coalesces} mark waves (unless created with
    [~batch:false]): a mark task structurally identical to one already
    staged in its batch is absorbed rather than transmitted, and the
    [on_coalesce] hook fires so the engine can settle the mark/return
    accounting the dropped twin owed. [Return] marks and reduction
    tasks never coalesce.

    The cycle controller reads {!in_flight} when seeding M_T — the
    visibility of in-transit tasks the paper defers to [5]. That means
    undelivered sends, staged or in-channel: a dropped frame is still in
    flight in the sense that matters, since its retransmission will
    eventually deliver it. *)

type t

val create :
  ?recorder:Dgr_obs.Recorder.t ->
  ?lineage:Dgr_obs.Lineage.t ->
  ?faults:Faults.t ->
  ?batch:bool ->
  unit ->
  t
(** With a recorder, flushes emit a [Batch] event per frame and
    {!deliver_into} a [Deliver] event per task handed up; {!purge} emits
    a [Purge] event per destination PE swept. Under faults,
    [Drop]/[Dup]/[Retransmit] events trace the channel per frame and
    [Cum_ack] events trace the acknowledgement watermarks. [batch]
    (default true) controls multi-task frames and mark coalescing;
    [~batch:false] restores one task per frame for A/B runs (the
    cumulative-ack layer is shared by both modes).

    With a [lineage] store, {!send} opens a latency ticket per reduction
    task (marking tasks travel unticketed — they may coalesce away),
    {!deliver_into} records the delivery step and hands the ticket to
    [push], and {!purge} drops tickets of expunged tasks. Sends always
    run serially (inline, or at the barrier's mailbox flush), so ticket
    ids are deterministic at any domain count. *)

val send : ?src:int -> ?lin:int -> ?depth:int -> t -> arrival:int -> pe:int -> Task.t -> unit
(** Stage a task on link (src, dst = pe) for [arrival]. [src] (default
    [-1], the controller) names the sending PE; it keys the batch and
    the per-link sequence-number space under faults. [lin] (default
    [-1], untracked) and [depth] (default [0]) seed the task's lineage
    ticket when a lineage store is attached. [arrival] is the
    fault-free arrival step; the link's base delay is recovered as
    [arrival - now of last deliver]. Tasks staged for the same (src,
    pe, arrival) join one batch; an identical already-staged mark
    absorbs the newcomer (see {!set_on_coalesce}). *)

val set_on_coalesce : t -> (pe:int -> Task.mark -> unit) -> unit
(** Install the mark-coalescing callback: fired from {!send} when a
    staged identical mark absorbs the task being sent, with [pe] the
    destination PE. The callback may re-enter {!send} (e.g. to stage
    the [Return] the absorbed mark would have produced); recursion is
    bounded because [Return] tasks never coalesce. Default: ignore. *)

(** {2 Termination credits}

    Transport for the flood scheme's distributed termination detector
    (see [Dgr_core.Termination]): per-PE [(epoch, sent, executed)]
    credits ride on data frames and cumulative acks under faults, and on
    a loss-free standalone queue (the heartbeat path) in both regimes.
    Credits are idempotent advisories — the detector max-merges them —
    so no delivery discipline is required. *)

val set_credit_of : t -> (int -> (int * int * int) option) -> unit
(** Install the credit sampler: [credit_of pe] is the PE's current
    [(epoch, sent, executed)] credit, or [None] when no mark wave is
    active. Sampled at every physical transmission — flush {e and}
    retransmit — of a data frame (from its source PE) and at every
    standalone ack (from the ack's sender). Default: no credits. *)

val set_on_credit : t -> (pe:int -> epoch:int -> sent:int -> executed:int -> unit) -> unit
(** Install the credit sink, fired at each receipt of a credit-carrying
    frame (duplicates included — credits are idempotent) and at each
    standalone credit's arrival. Default: ignore. *)

val post_credit : t -> arrival:int -> pe:int -> epoch:int -> sent:int -> executed:int -> unit
(** Enqueue a standalone heartbeat credit from [pe], handed to the
    credit sink at [arrival]. Loss-free even under faults: heartbeats
    are the liveness backstop for PEs with no traffic to piggyback on. *)

val deliver_serial : t -> now:int -> push:(int -> int -> Task.t -> unit) -> unit
(** The serial half of the network's clock tick: flush the batches
    staged since the last tick into the channel, then hand every
    reduction task due by [now] to [push pe stamp task] — [stamp] its
    lineage ticket, [-1] when untracked — in delivery order, without
    building a list, emitting a [Deliver] event for every due task,
    marks included. A delivered frame that holds a mark is parked in its
    destination's inbox until {!take_marks} hands its marks over. Under
    faults this also settles owed cumulative acks (piggybacked or
    standalone), suppresses duplicate frames, and fires expired
    retransmission timers. Call once per step. *)

val take_marks : t -> pe:int -> (Task.t -> unit) -> unit
(** The shard half of the tick: apply [f] to every mark parked for
    [pe] since the last {!deliver_serial}, in delivery order, and empty
    the inbox. Marks are never ticketed, so no stamp is passed. Calls
    for distinct PEs touch disjoint state and may run concurrently on
    different domains; each PE's inbox must be emptied before the next
    tick. *)

val deliver_into : t -> now:int -> push:(int -> int -> Task.t -> unit) -> unit
(** The whole tick on one domain: {!deliver_serial}, then {!take_marks}
    for every PE in ascending order, with each mark handed to
    [push pe (-1) task]. Every due task reaches [push]: first the
    reduction tasks in delivery order, then PE 0's marks in delivery
    order, then PE 1's, and so on. A pool therefore receives its marks
    in the same order as under the split tick. *)

val deliver : t -> now:int -> (int * Task.t) list
(** {!deliver_into} collected into a list, in its order (tests and
    debugging; the engine runs the two halves). *)

val in_flight : t -> Task.t list
(** Tasks sent but not yet delivered — staged batches included — ordered
    by fault-free arrival step, then batch stage order, then in-batch
    post order. Delivered-but-unacked frames are excluded: their effect
    already happened. *)

val iter_in_flight : t -> (Task.t -> unit) -> unit
(** Apply [f] to every undelivered task in {e unspecified} order, without
    sorting or allocating — for order-insensitive folds (M_T seeding). *)

val iter_in_flight_dst : t -> (dst:int -> Task.t -> unit) -> unit
(** Like {!iter_in_flight}, with each task's destination PE: the
    receiver is the PE whose "local knowledge" an in-flight task counts
    as when the cycle builds taskroot from per-PE enumerations. *)

val purge : t -> (Task.t -> bool) -> int
(** Remove matching undelivered tasks; returns the count. Tasks are
    filtered inside their batches (queued frame copies share the batch,
    so every copy is pruned at once); a batch emptied entirely is
    withdrawn — its retransmission stops, late copies are not delivered,
    and under faults its sequence number is treated as received so
    cumulative acks flow past the hole without re-acking survivors.
    Emits one [Purge] event per affected destination PE, ascending. *)

val size : t -> int
(** Undelivered task count, staged batches included. [0] means no task
    will ever be handed up again (outstanding acks and timers for
    already-delivered frames do not count), so quiescence detection is
    unaffected by ack traffic. *)

val entries : t -> (int * Task.t) list
(** [(arrival, task)] pairs for undelivered sends, sorted by fault-free
    arrival step then send order — deterministic under [jitter > 0] and
    under faults, so trace output and M_T seeding never depend on heap
    or hash layout. *)

(** {2 Transport counters}

    Monotonic totals since [create], synced into {!Metrics} by the
    engine each step. *)

val frames_sent : t -> int
(** Data frames flushed into the channel (initial transmissions only,
    both regimes; retransmissions are counted by the fault plane). *)

val acks_sent : t -> int
(** Standalone cumulative-ack frames transmitted. *)

val acks_piggybacked : t -> int
(** Cumulative acks carried on reverse-direction data frames. *)

val tasks_sent : t -> int
(** Tasks staged for transmission (coalesced marks excluded). *)

val marks_coalesced : t -> int
(** Mark tasks absorbed by a staged identical twin before transmission. *)

val unacked : t -> int
(** Pending table size under faults: frames sent but not yet covered by
    a cumulative ack, delivered or not (tests). *)

val set_link_seq : t -> src:int -> dst:int -> int -> unit
(** Test hook: fast-forward link (src, dst)'s sender sequence number to
    exercise the wraparound guard. Not for production use. *)

val crash_pe : t -> pe:int -> int
(** A PE crash, as the network sees it: discard every frame in flight on
    links touching [pe] in either direction — staged batches, unacked
    sends, queued copies (retransmitted duplicates included), standalone
    acks — cancel their retransmit timers and owed acks, and reset the
    per-link sequence state on both endpoints of every severed link, so
    traffic after recovery restarts at seq 0. The reset cannot produce
    dedup false-positives: every frame that could carry an old sequence
    number on those links is removed in the same call, and stale timers
    are filtered eagerly so a reused (src, dst, fseq) key is never fired
    by a pre-crash timer. Returns the number of undelivered tasks lost
    (their lineage tickets are dropped); delivered-but-unacked batches
    lose only their ack bookkeeping. *)

(** Per-PE outgoing buffer for the sharded engine: a worker-domain PE
    posts its sends here instead of staging directly; the engine flushes
    every mailbox at the step barrier in ascending PE order. Staging
    groups tasks by (src, dst, arrival) regardless of post interleaving,
    so the merged batches equal the serial engine's exactly. *)
module Mailbox : sig
  type mb

  val create : unit -> mb

  val post :
    mb -> ?lin:int -> ?depth:int -> src:int -> arrival:int -> pe:int -> Task.t -> unit

  val length : mb -> int

  val flush : mb -> t -> unit
  (** Issue every buffered send into the network in post order, then
      clear the mailbox. The engine never calls this — its barrier uses
      the destination-sharded flush below; it remains as the reference
      semantics that flush is tested against. *)

  type t = mb
end

(** {2 Destination-sharded flush}

    The barrier mailbox flush split into a parallelizable grouping pass
    and a serial finalization, together byte-equivalent to flushing
    every mailbox through {!Mailbox.flush} in ascending PE order.
    Frames are keyed by destination, so grouping tasks into frames and
    deciding mark coalescing touch per-destination state only: shards
    over disjoint destination ranges may run {!flush_shard_group}
    concurrently. Everything globally ordered — frame uids and staging
    order, lineage ticket slots, [on_coalesce] callbacks and their rng
    draws, counters, events — happens in {!flush_shard_finalize}, which
    replays the per-entry verdicts in the serial flush's exact order. *)

val flush_shard_plan : t -> Mailbox.mb array -> unit
(** Size the plan for one barrier ([mbs.(src)] is PE [src]'s mailbox)
    and publish per-src offsets. Serial. Raises [Invalid_argument]
    naming the staged count if the staged area is non-empty — a forming
    frame could match a mailbox entry's key. {!deliver_into} empties
    it. *)

val flush_shard_group : t -> Mailbox.mb array -> lo:int -> hi:int -> unit
(** Group entries bound for destinations [lo, hi) into forming frames
    and record per-entry verdicts. Safe to run concurrently with other
    disjoint ranges after {!flush_shard_plan}; deterministic per range
    (ascending src, post order within a mailbox). *)

val flush_shard_finalize : t -> Mailbox.mb array -> unit
(** Stage the grouped frames and settle tickets, coalesce callbacks and
    counters, in the serial flush's global order; clears the mailboxes
    and the plan. Serial, after every {!flush_shard_group} returned. *)
