(** Trace exporters.

    All output is built from integers with a fixed field order, so a given
    recorder state always serializes to the same bytes — the determinism
    the trace tests and the bench harness rely on.

    {!chrome_trace} emits Chrome trace-event JSON (the format Perfetto and
    [chrome://tracing] load): one thread track per PE for task-level
    instants, one "marking" track carrying the M_T/M_R/restructure phase
    spans and cycle verdicts, one "controller" track for pauses,
    allocation events and watchdog verdicts, and counter tracks for the
    sampled time series (pool depth, live vertices, messages in flight,
    per-PE throughput, fault-plane activity, and transport batching:
    frames, batched tasks, piggybacked acks). *)

val chrome_trace : Recorder.t -> string

val timeseries_csv : Recorder.t -> string
(** Long-form CSV: one row per (sample, PE), global columns repeated —
    [step,pe,pool_depth,marking,reduction,live,in_flight,headroom,
    drops,dups,retransmits,stalls,frames,batched_tasks,
    acks_piggybacked]. *)

val timeseries_json : Recorder.t -> string

val write_file : string -> string -> unit
(** [write_file path contents] — tiny helper shared by the CLI and the
    harness. *)
