(** Macro benchmarks: seeded end-to-end machine scenarios.

    Where {!Experiments} regenerates the paper's figures and claims, this
    module measures the simulator itself — whole runs of the distributed
    machine (reduction + marking + network) on fixed workloads, reported
    as throughput. Results are written as versioned [BENCH.json] so runs
    can be diffed across commits ({!schema_version}).

    Every scenario is seeded and deterministic: for a fixed (config,
    seed) the simulation fields of a row — steps, tasks, messages,
    cycles, live set, completion, digest — are byte-identical across
    runs and machines. Only the wall-clock fields (and the rates derived
    from them) vary; [~deterministic:true] zeroes those, making the whole
    file byte-reproducible (the determinism test diffs two such runs).

    The smoke subset ([~smoke:true]) is a {e subset} of the full suite —
    the same scenarios at the same sizes, not scaled-down variants — so
    smoke numbers are directly comparable against a committed
    [BENCH_baseline.json] produced by a full run. *)

val schema_version : int
(** Version of the [BENCH.json] layout (and of the digest recipe). *)

type row = {
  name : string;
  seed : int;
  domains : int;  (** shard count the scenario ran at *)
  steps : int;  (** simulation steps executed *)
  tasks : int;  (** reduction + marking tasks executed *)
  messages : int;  (** remote + local task sends *)
  cycles : int;  (** marking cycles completed *)
  avg_cycle_len : float;  (** steps per completed cycle; 0 when none *)
  live : int;  (** live vertices at the end *)
  completed : bool;  (** the program delivered its result *)
  frames_sent : int;  (** data frames flushed by the transport *)
  acks_sent : int;  (** standalone cumulative-ack frames *)
  marks_coalesced : int;
      (** always 0: copies [Metrics.marks_coalesced], kept for the
          pinned row schema *)
  crashes : int;  (** whole-PE crashes begun (zero outside crash scenarios) *)
  recoveries : int;  (** crashed PEs that came back up *)
  crash_rehomed : int;  (** live vertices moved off crashed PEs *)
  tasks_per_frame : float;
      (** tasks carried / frames sent — the frame-count reduction
          batching bought over one-task-per-frame transport; [0.0]
          when no frames were sent (fault-free ideal channel) *)
  lat_p50 : int;
      (** end-to-end task latency percentiles in steps, from the lineage
          histograms ({!Dgr_sim.Metrics}) — deterministic, present in
          deterministic rows too *)
  lat_p90 : int;
  lat_p99 : int;
  lat_p999 : int;
  serial_fraction : float;
      (** measured Amdahl serial fraction ({!Dgr_sim.Profile});
          wall-clock derived, [0.0] in deterministic mode *)
  digest : string;
      (** MD5 over the run's deterministic signature: final live set,
          deadlock verdicts, result, and the task/message/GC counters.
          Equal digests mean semantically identical runs. *)
  wall_ns : int64;  (** host wall clock; 0 in deterministic mode *)
  minor_words : float;  (** minor heap allocated; 0 in deterministic mode *)
  speedup_vs_seq : float;
      (** steps/sec relative to the same scenario at [domains = 1];
          [0.0] until filled by {!with_speedups} (and always [0.0] in
          deterministic mode, where no rates exist) *)
}

val scenario_names : smoke:bool -> string list
(** The suite in run order ([dgr bench --list]). *)

val run_suite :
  ?domains:int ->
  ?batch:bool ->
  ?only:string list ->
  smoke:bool ->
  deterministic:bool ->
  unit ->
  row list
(** Run the suite (or the [only] subset of it, by name) and return one
    row per scenario. [deterministic] skips the clock and allocation
    meters. [domains] (default 1) splits each engine's PEs into that
    many shards — the simulation fields and digest are identical at
    every value; only the wall-clock fields move. [batch] (default
    [true]) toggles the transport's frame batching ([dgr bench
    --no-batch] measures the one-task-per-frame floor). Raises
    [Invalid_argument] on an unknown name in [only]. *)

val run_for_report :
  ?domains:int -> ?batch:bool -> string -> Dgr_sim.Engine.t
(** Build, prime and run one named suite scenario, returning the engine
    itself so a post-run analyzer ({!Report}, [dgr report --scenario])
    can walk its lineage store, latency histograms and step-phase
    profile. Raises [Invalid_argument] on an unknown name. *)

val steps_per_sec : row -> float
(** [0.0] for deterministic rows. *)

val with_speedups : seq:row list -> row list -> row list
(** Fill each row's [speedup_vs_seq] from the matching (same name,
    {e same digest}) row of a sequential run; rows without a comparable
    sequential twin pass through unchanged. *)

val speedup_table : seq:row list -> par:row list -> (string * float * float * bool) list
(** [(name, seq_sps, par_sps, digests_agree)] for every N-shard row with
    a 1-shard ("sequential") twin — the comparison [dgr bench --domains
    N] prints. [digests_agree = false] flags a determinism
    violation, which is worth more than any speedup. *)

val to_json : ?batch:bool -> mode:string -> deterministic:bool -> row list -> string
(** The [BENCH.json] document: fixed field order and float precision, so
    equal rows serialize to equal bytes. [mode] is recorded verbatim
    ("full" or "smoke"); [batch] (default [true]) records whether frame
    batching was on for the run. *)

val scenario_rates : string -> (string * float) list
(** [(name, steps_per_sec)] per scenario parsed back out of a
    {!to_json}-formatted document (the committed baseline). Tolerant of
    unknown fields; raises [Failure] if the document does not look like
    a BENCH.json at all. *)

val regressions :
  threshold:float -> baseline:string -> row list -> (string * float * float) list
(** [(name, baseline_sps, current_sps)] for every scenario present in
    both the baseline document and the fresh rows whose steps/sec fell
    below [(1 - threshold) * baseline] — e.g. [~threshold:0.2] flags
    >20% regressions. Scenarios with a non-positive baseline rate (a
    deterministic baseline) are skipped. *)

val compare_table : baseline:string -> candidate:string -> string
(** An A/B diff of two {!to_json}-formatted documents, one row per
    scenario: steps/sec with the relative delta, serial fraction, minor
    words per step with the relative delta, and the end-to-end latency
    percentiles (printed as [pN=v] when unchanged, [pN=a->b] when
    shifted). Scenarios present in only one document are flagged.
    Raises [Failure] if either document is not a dgr-macro
    [BENCH.json]. *)

val scenario_alloc_budgets : string -> (string * float) list
(** [(name, budget_minor_words_per_step)] parsed out of a committed
    allocation-budget document ([BENCH_alloc_budget.json]). Raises
    [Failure] if the document is not a ["dgr-alloc-budget"] file. *)

val alloc_regressions :
  budgets:(string * float) list -> row list -> (string * float * float) list
(** [(name, budget, current_mw_per_step)] for every fresh row whose
    minor words per step exceed its committed budget. Allocation per
    step is near-deterministic (unlike wall-clock rates), so the budget
    is an absolute ceiling, not a noise-tolerant ratio. Rows from
    deterministic runs (zeroed meters) and scenarios without a positive
    budget are skipped. *)

val golden_lines : ?domains:int -> unit -> string list
(** The 21-scenario differential fixture: workloads × collectors ×
    machine shapes × fault planes (line 20 crashes whole PEs, several
    in some steps), each summarized as one line capturing
    the end state (live-set digest, deadlock verdicts, result, metrics)
    and the MD5 of the full event trace. [test/golden_engine.txt] holds
    the committed lines; the differential test regenerates them — at
    [domains] ∈ {1, 2, 4} — and diffs byte-for-byte, pinning the sharded
    engine to bit-identical semantics at every shard count. *)
