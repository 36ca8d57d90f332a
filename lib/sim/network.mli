open Dgr_task

(** The message network: tasks in transit between PEs, batched per link.

    Transport is frame-batched in both regimes: every task staged on
    the same (src, dst) link for the same arrival step rides in one
    frame, staged until the next {!deliver_serial} tick flushes it into
    the channel. Frames are built by their sender: each source PE, and
    the controller (src [-1]), owns a record of its forming frames, and
    every send stages through it, joining the frame forming on its link
    whichever phase opened it. Batching is a refinement of the paper's one-task-per-message model
    below task granularity — each task keeps its fault-free arrival step
    and per-link FIFO order; only the grouping into physical frames (and
    hence per-frame bookkeeping: arrival events, unacked rows,
    retransmit timers, acks) changes.

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

    Batching never drops a task: every task sent is delivered, marks
    included, so two identical marks staged on one link for one step
    both arrive and both execute, as in the paper's one-task-per-edge
    model. The transport keeps no marking accounting of its own.

    One frame format carries both planes: a frame is a buffer of int
    lanes, a mark three of them ([v par meta], {!Task.sink}) and a
    reduction one row of {!Task.red_lanes} ([src dst head key pay gen
    stamp], {!Task.red_sink}), in stage order, told apart by lane 2's
    sign. A [V_err]'s string sits in the frame's own string table, which
    only its sender writes. Once frames recycle, staging either kind
    allocates nothing; only the [Task.t] entry points build views.

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
    {!deliver_into} a [Deliver] event per task handed up. Under faults,
    [Drop]/[Dup]/[Retransmit] events trace the channel per frame and
    [Cum_ack] events trace the acknowledgement watermarks. [batch]
    (default true) controls multi-task frames; [~batch:false] restores one task per frame for A/B runs (the
    cumulative-ack layer is shared by both modes).

    With a [lineage] store, {!send} opens a latency ticket per reduction
    task (marking tasks travel unticketed: the latency story is about
    demand propagation, not the mark wave),
    {!deliver_into} records the delivery step and hands the ticket to
    [push], and {!crash_pe} drops tickets of lost tasks. Tickets are
    opened outside the shard phase only (by the send, or by {!seal}, in
    PE order), so ticket ids are deterministic at any domain count. *)

val send :
  ?src:int -> ?lin:int -> ?depth:int -> ?gen:int -> t -> arrival:int -> pe:int -> Task.t -> unit
(** Stage a task on link (src, dst = pe) for [arrival]. [src] (default
    [-1], the controller) names the sending PE; it keys the batch and
    the per-link sequence-number space under faults. [lin] (default
    [-1], untracked) and [depth] (default [0]) seed the task's lineage
    ticket when a lineage store is attached. [gen] (default
    {!Task.no_gen}) rides to the destination pool untouched. [arrival] is the
    fault-free arrival step; the link's base delay is recovered as
    [arrival - now of last deliver]. Tasks staged for the same (src,
    pe, arrival) join one batch, in staging order, whichever phase they
    were sent in. A mark is staged as its lanes (see {!send_mark}), a
    reduction as its row ({!stage_reduction}); [Task.t] is the boxed
    interface, not the wire form. *)

val send_mark : t -> src:int -> arrival:int -> pe:int -> int -> int -> int -> unit
(** [send] of a mark given as lanes [v par meta] ({!Task.sink}): staged
    into its frame as three ints, with no view and no optional-argument
    boxes. Marks are never ticketed. *)

val stage_reduction :
  t ->
  src:int ->
  lin:int ->
  depth:int ->
  gen:int ->
  arrival:int ->
  pe:int ->
  int ->
  int ->
  int ->
  int ->
  int ->
  string ->
  unit
(** [send] of a reduction given as its lanes [head src dst key pay err]
    ({!Task.red_sink}), with every argument given: staged into its frame
    as one row of {!Task.red_lanes} ints, [gen] and the lineage stamp
    included, with no view built. A [V_err]'s string goes to the frame's
    own string table, which only the sender writes. A task that goes
    stale in flight is delivered like any other, and the push drops
    it. *)

(** {2 The shard phase}

    Between {!shard_phase} and {!seal} a send touches only its sender's
    record: its new frame is not numbered or staged, its ticket not
    opened, its task not counted in {!size}. Sends from distinct sources
    then commute: their order never shows after the seal. *)

val reserve : t -> pes:int -> unit
(** Size the per-PE state for PEs [0 .. pes - 1]. A send outside it
    grows it, except in the shard phase, where it raises
    [Invalid_argument]. *)

val shard_phase : t -> unit
(** Begin the shard phase. *)

val seal : t -> unit
(** End the shard phase: for each sender that sent in it, in ascending
    PE order (the controller first), number and stage its new frames in
    open order, open its tickets in post order and count its tasks — the
    frames sending PE after PE outside the shard phase would have
    staged. The pass visits only those senders. Until then
    {!deliver_serial} and {!crash_pe} raise [Invalid_argument]
    naming the sender and its unsealed frame count. *)

(** {2 Termination credits}

    Transport for the flood scheme's distributed termination detector
    (see [Dgr_core.Termination]): per-PE [(epoch, sent, executed)]
    credits ride on data frames and cumulative acks under faults, and on
    a loss-free standalone queue (the heartbeat path) in both regimes.
    Credits are idempotent advisories — the detector max-merges them —
    so no delivery discipline is required. *)

val set_credit_of :
  t -> epoch:(int -> int) -> sent:(int -> int) -> executed:(int -> int) -> unit
(** Install the credit sampler: [epoch pe] is the epoch of the PE's
    current credit, or [-1] when no mark wave is active; [sent pe] and
    [executed pe] are its counters, ignored when the epoch is [-1]. A
    frame carries the three as ints, so sampling allocates nothing.
    Sampled at every physical transmission — flush {e and}
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

val deliver_serial : t -> now:int -> push:(int -> int array -> int -> string -> unit) -> unit
(** The serial half of the network's clock tick: flush the batches
    staged since the last tick into the channel, then hand every
    reduction task due by [now] to [push pe a i err]: its row is the
    {!Task.red_lanes} lanes of [a] from [i] on ([src dst head key pay gen
    stamp], [stamp] its lineage ticket, [-1] when untracked, and [gen]
    the generation it was sent in), valid until [push] returns, and
    [err] its [V_err] string. Delivery order, no list and no view are
    built, and a [Deliver] event is emitted for every due task,
    marks included. A delivered frame that holds a mark is parked in its
    destination's inbox until {!take_mark_lanes} hands its marks over. Under
    faults this also settles owed cumulative acks (piggybacked or
    standalone), suppresses duplicate frames, and fires expired
    retransmission timers. Call once per step. *)

val set_on_park : t -> (int -> unit) -> unit
(** Install the park hook: [f pe] runs when {!deliver_serial} parks a
    frame in [pe]'s empty inbox, so the engine learns which PEs have
    marks to take without scanning every inbox. Default: ignore. *)

val parked_frames : t -> pe:int -> int
(** Frames parked for [pe] and not yet taken (tests). *)

val take_mark_lanes : t -> pe:int -> Mark_ring.t -> unit
(** The shard half of the tick: push every mark parked for [pe] since
    the last {!deliver_serial} onto [ring] (the PE pool's mark queue), in
    delivery order, one ring call per frame, and empty the inbox; each
    emptied frame goes back to its sender's free list at once. Marks
    are never ticketed, so no stamp is carried. Calls for distinct PEs
    differ only in which free record a later send reuses, so their
    order never shows; each PE's inbox must be emptied before the next
    tick. *)

val deliver_into : t -> now:int -> push:(int -> int -> Task.t -> unit) -> unit
(** The whole tick at once, as views: {!deliver_serial} with each
    reduction handed to [push pe stamp task], then {!take_mark_lanes}
    for every PE in ascending order, with each mark handed to
    [push pe (-1) task]. Every due task reaches [push]: first the
    reduction tasks in delivery order, then PE 0's marks in delivery
    order, then PE 1's, and so on. A pool therefore receives its marks
    in the same order as under the split tick. *)

val in_flight : t -> Task.t list
(** Tasks sent but not yet delivered — staged batches included — ordered
    by fault-free arrival step, then batch stage order, then in-batch
    post order. Delivered-but-unacked frames are excluded: their effect
    already happened. Stale tasks are listed too. *)

val iter_in_flight : t -> (int -> Task.t -> unit) -> unit
(** {!in_flight} as [f gen task] ({!Task.no_gen} for a mark). *)

val iter_in_flight_rows : t -> (int -> int -> int -> int -> unit) -> unit
(** Apply [f pe gen src dst] to every undelivered reduction task: its
    destination PE, send generation and endpoint lanes, without sorting
    or building views; marks are skipped. The order
    is fixed: the channel's frames (by arrival step on the ideal
    channel; under faults link by link, by source then destination, the
    controller first, each link's in sequence order), then the staged
    ones. For M_T seeding: the receiver is the PE whose
    "local knowledge" an in-flight task counts as when the cycle builds
    taskroot from per-PE enumerations. *)

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
(** Tasks staged for transmission. *)

val unacked : t -> int
(** Under faults, the frames sent but not yet covered by a cumulative
    ack, delivered or not, summed over the links (tests). *)

val set_link_seq : t -> src:int -> dst:int -> int -> unit
(** Test hook: fast-forward idle link (src, dst) to sequence number [n],
    as if its first [n] sends had been delivered and acked, to exercise
    the wraparound guard. Not for production use. *)

val crash_pe : t -> pe:int -> int
(** A PE crash, as the network sees it: discard every frame in flight on
    links touching [pe] in either direction — staged batches, unacked
    sends, queued copies (retransmitted duplicates included), standalone
    acks — cancel their retransmit timers and owed acks, and reset the
    per-link sequence state on both endpoints of every severed link, so
    traffic after recovery restarts at seq 0. The reset cannot produce
    dedup false-positives: each severed link's state is one record,
    reset as a unit to a new incarnation, and a queued frame, ack or
    timer of an older incarnation is dropped when it pops, so nothing
    sent before the crash acts on the restarted link. Returns the number of undelivered tasks
    lost (their lineage tickets are dropped); delivered-but-unacked
    batches lose only their ack bookkeeping. *)
