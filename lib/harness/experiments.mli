open Dgr_util

(** The experiment suite (see DESIGN.md §3 and EXPERIMENTS.md).

    The paper (PODC 1983) has no quantitative evaluation section; its
    "evaluation" is two worked figures and a set of claims argued in
    prose. Each experiment here regenerates one of those artifacts as a
    table:

    - E1 — Fig 3-1 / Theorem 2: deadlock detection on [x = x + 1];
    - E2 — Fig 3-2 / Properties 3-6: the four task types classified both
      by the oracle and by the decentralized marking;
    - E3 — Fig 3-3: Venn-region sizes on random mutating graphs, with the
      structural containments checked;
    - E4 — §4: concurrent marking vs stop-the-world vs reference counting
      (pause times and completion);
    - E5 — §1/§4: scaling of the decentralized marking with PE count;
    - E6 — §4: cyclic garbage — tracing reclaims it, RC leaks it;
    - E7 — §3.2 item 3 / Property 6: irrelevant-task deletion bounds the
      speculative explosion;
    - E8 — §3.2 items 1-2: dynamic task priorities (ablation of the pool
      policy);
    - E9 — §6: the space optimization — marking-tree bookkeeping
      (2 words/vertex, return tasks) vs flood counters (2 words/PE,
      termination by counting);
    - E10 — §2.2: V is finite — the smallest heap each collector can run
      the same program in;
    - E11 — §2.1's idealized network, revoked: message drop rate vs
      marking-cycle length with reliable delivery (acks, retransmission,
      dedup) re-earning exactly-once effect over a lossy channel;
    - E12 — the step-phase profiler's measured Amdahl serial fraction vs
      shard count on a storm workload (the ROADMAP item 3 yardstick).

    Each run function is deterministic for a given seed — except E12's
    serial-fraction and Amdahl-ceiling columns, which are wall-clock
    measurements (its latency percentile columns stay deterministic). *)

type result = Table.t list

type info = {
  title : string;  (** one-line description *)
  paper_ref : string;  (** the figure/section of the paper it regenerates *)
}

val all : (string * info * (unit -> result)) list
(** [(id, info, run)] for every experiment, in order — the single
    registry every front end ([dgr experiment], [bench/main.ml])
    enumerates. Adding an experiment touches only this list. *)

val ids : string list
(** The registered ids, in order. *)

val describe : string -> info option

val run : ?trace_dir:string -> string -> unit
(** Run one experiment by id ("e1".."e12" or "all") and print its tables.
    With [trace_dir] (created if missing), every simulated run made
    through the shared program-runner additionally records a structured
    event trace and writes it as Chrome trace-event JSON, numbered per
    experiment: [DIR/e4-01.json], [DIR/e4-02.json], ... (E4/E5/E7-E10;
    the figure-replay experiments E1-E3, E6 drive the engine directly and
    are not traced). Raises [Invalid_argument] on an unknown id. *)
