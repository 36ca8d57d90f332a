open Dgr_util

(** Run metrics collected by the engine, reported by the harness. *)

type t = {
  mutable steps : int;
  mutable reduction_executed : int;
  mutable marking_executed : int;
  mutable stale_marks_dropped : int;
      (** marks from a superseded wave dropped at dispatch (epoch tag) *)
  mutable remote_messages : int;  (** tasks sent across PE boundaries *)
  mutable local_messages : int;
  mutable tasks_purged : int;  (** irrelevant/stale tasks expunged by GC *)
  mutable cycles_completed : int;
  mutable stw_collections : int;
  pauses : Stats.t;  (** mutator pause lengths, in steps *)
  mutable total_pause_steps : int;
  mutable completion_step : int option;  (** when the root's value arrived *)
  pool_depth : Stats.t;  (** tasks pooled over all PEs, added once per step *)
  mutable peak_live : int;  (** max live vertices observed *)
  mutable deadlocks_recovered : int;
      (** vertices rewritten to an error value by ⊥-recovery *)
  mutable msgs_dropped : int;  (** frames (data and ack) lost by the fault plane *)
  mutable msgs_duplicated : int;  (** data frames duplicated in transit *)
  mutable msgs_delayed : int;  (** frames given extra, reordering delay *)
  mutable retransmits : int;  (** timeouts that resent an unacked frame *)
  mutable dup_suppressed : int;  (** redeliveries swallowed by dedup *)
  mutable stalls : int;  (** transient PE stalls begun *)
  mutable stall_steps : int;  (** execution steps lost to stalls *)
  mutable crashes : int;  (** whole-PE crashes (pool/segment/links lost) *)
  mutable recoveries : int;  (** crashed PEs that came back up *)
  mutable crash_rehomed : int;  (** live vertices moved off crashed PEs *)
  mutable crash_lost_tasks : int;
      (** tasks destroyed by crashes (pool + undelivered in-flight) *)
  mutable crash_steps : int;
      (** crash ticks that crashed a PE, plus [inject_crash] calls; in
          [dgr report] only, not in {!to_json} or {!pp} *)
  mutable ckpt_syncs : int;
      (** checkpoint syncs, one per step on which two or more PEs crash;
          in [dgr report] only *)
  mutable frames_sent : int;  (** data frames flushed (initial sends) *)
  mutable acks_sent : int;  (** standalone cumulative-ack frames *)
  mutable acks_piggybacked : int;  (** cum acks riding reverse data frames *)
  mutable tasks_sent : int;  (** tasks staged for transmission *)
  mutable marks_coalesced : int;
      (** always 0: the transport delivers every mark. The field stays
          because the stats-JSON and BENCH.json schemas pin its key and
          the repository benchmark reads it; it goes with them. *)
  lat_e2e : Dgr_obs.Hist.t;
      (** send → execute, in steps (reduction tasks with lineage tickets) *)
  lat_queue : Dgr_obs.Hist.t;  (** delivery → execute: pool residence *)
  lat_net : Dgr_obs.Hist.t;  (** send → fault-free arrival: link transit *)
  lat_retx : Dgr_obs.Hist.t;
      (** fault-free arrival → actual delivery: retransmit delay *)
  lat_recovery : Dgr_obs.Hist.t;
      (** crash → recover downtime per episode, in steps *)
  mutable health_mark_stalls : int;  (** mark-wave watchdog firings *)
  mutable health_quiescence_stalls : int;  (** progress watchdog firings *)
  mutable health_retx_storms : int;  (** retransmit-storm windows *)
}

val create : unit -> t

val record_pause : t -> int -> unit

val absorb : t -> t -> unit
(** [absorb t src] adds [src]'s execution counters (reduction/marking
    executed, messages, purges, recoveries) and latency histograms into
    [t] and zeroes them in [src]. Used by the sharded engine to merge
    per-PE sinks at the step barrier; the serially-recorded fields
    (pauses, pool depth, completion, faults, health) are untouched. *)

val schema_version : int
(** Version of the {!to_json} layout; bumped whenever a field is added,
    removed or reinterpreted, so downstream readers of [--stats-json]
    files can tell what they are looking at. *)

val to_json : t -> string
(** Machine-readable metrics (one JSON object, fixed field order and
    float precision — byte-deterministic for equal metrics), carrying
    [schema_version] as its first field. The bench harness and
    [--stats-json] consume this instead of scraping {!pp_summary}
    text. *)

val pp_summary : Format.formatter -> t -> unit
