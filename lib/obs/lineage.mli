(** Causal task lineage: ticket store for per-task latency.

    A *lineage* is minted per injection and identifies the causal tree
    a task belongs to; a *ticket* (the [int] "stamp" threaded through
    {!Dgr_sim} — network batches, pools, execution) is a recycled slot
    recording that task's lineage, causal depth, and the send / ideal
    arrival / actual delivery steps. Only reduction tasks are
    ticketed; marking tasks travel with stamp [-1] (the latency story
    is demand propagation, not the mark wave).

    Slots recycle LIFO, so ticket ids are a pure function of the
    open/close order — deterministic per (config, seed) and identical
    at any domain count. All reads are plain array loads and safe from
    worker domains; {!open_ticket}, {!close} and {!drop} mutate and
    must only run on the serial (barrier) side. *)

type t

val create : unit -> t

(** [new_lineage t ~now] mints a fresh lineage id, recording [now] as
    its injection step. Ids are dense from 0. *)
val new_lineage : t -> now:int -> int

(** [open_ticket t ~lin ~depth ~sent ~arrival] allocates a ticket for
    one in-flight task: lineage [lin] (or [-1] for untracked sends),
    causal [depth] in hops from injection, the step the task was
    [sent], and its ideal (fault-free) [arrival] step. *)
val open_ticket : t -> lin:int -> depth:int -> sent:int -> arrival:int -> int

(** Records the step the ticketed task was actually delivered into a
    pool — later than its ideal arrival when retransmits intervened. *)
val deliver : t -> int -> now:int -> unit

val lin_of : t -> int -> int
val depth_of : t -> int -> int
val sent_of : t -> int -> int
val arrival_of : t -> int -> int

(** Actual delivery step; falls back to the ideal arrival for tickets
    executed without an observed delivery. *)
val delivered_of : t -> int -> int

(** [close t stamp ~now] retires a ticket at execution: folds it into
    its lineage's aggregates (last execution step, task count, max
    depth) and recycles the slot. *)
val close : t -> int -> now:int -> unit

(** [close_many t slots ~len ~now] closes [slots.(0..len-1)] in order —
    one bulk call per shard at the step barrier, byte-equivalent to
    [len] successive {!close} calls (same aggregates, same LIFO slot
    recycling order). *)
val close_many : t -> int array -> len:int -> now:int -> unit

(** [drop t stamp] retires a ticket whose task was purged in flight,
    without touching lineage aggregates. *)
val drop : t -> int -> unit

val lineages : t -> int
val in_flight : t -> int
val closed : t -> int
val dropped : t -> int

(** Iterate per-lineage aggregates in lineage-id order: injection
    step, last execution step, tasks completed, max causal depth. *)
val iter_lineages :
  t ->
  (lin:int -> injected:int -> last:int -> tasks:int -> depth:int -> unit) ->
  unit
