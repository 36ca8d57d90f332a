open Dgr_util

type t = {
  mutable steps : int;
  mutable reduction_executed : int;
  mutable marking_executed : int;
  mutable stale_marks_dropped : int;
  mutable remote_messages : int;
  mutable local_messages : int;
  mutable tasks_purged : int;
  mutable cycles_completed : int;
  mutable stw_collections : int;
  pauses : Stats.t;
  mutable total_pause_steps : int;
  mutable completion_step : int option;
  pool_depth : Stats.t;
  mutable peak_live : int;
  mutable deadlocks_recovered : int;
  mutable msgs_dropped : int;
  mutable msgs_duplicated : int;
  mutable msgs_delayed : int;
  mutable retransmits : int;
  mutable dup_suppressed : int;
  mutable stalls : int;
  mutable stall_steps : int;
  (* crash plane (serial-only; never absorbed) *)
  mutable crashes : int;
  mutable recoveries : int;
  mutable crash_rehomed : int;
  mutable crash_lost_tasks : int;
  mutable crash_steps : int;
  mutable ckpt_syncs : int;
  mutable frames_sent : int;
  mutable acks_sent : int;
  mutable acks_piggybacked : int;
  mutable tasks_sent : int;
  mutable marks_coalesced : int;
  (* per-task latency decomposition, recorded at execution from the
     task's lineage ticket: end-to-end = network + retransmit + queue +
     1 (the execution step itself) *)
  lat_e2e : Dgr_obs.Hist.t;
  lat_queue : Dgr_obs.Hist.t;
  lat_net : Dgr_obs.Hist.t;
  lat_retx : Dgr_obs.Hist.t;
  (* downtime per crash→recover episode (serial-only; never absorbed) *)
  lat_recovery : Dgr_obs.Hist.t;
  (* watchdog verdicts (serial-only; never absorbed) *)
  mutable health_mark_stalls : int;
  mutable health_quiescence_stalls : int;
  mutable health_retx_storms : int;
}

let create () =
  {
    steps = 0;
    reduction_executed = 0;
    marking_executed = 0;
    stale_marks_dropped = 0;
    remote_messages = 0;
    local_messages = 0;
    tasks_purged = 0;
    cycles_completed = 0;
    stw_collections = 0;
    pauses = Stats.create ();
    total_pause_steps = 0;
    completion_step = None;
    pool_depth = Stats.create ();
    peak_live = 0;
    deadlocks_recovered = 0;
    msgs_dropped = 0;
    msgs_duplicated = 0;
    msgs_delayed = 0;
    retransmits = 0;
    dup_suppressed = 0;
    stalls = 0;
    stall_steps = 0;
    crashes = 0;
    recoveries = 0;
    crash_rehomed = 0;
    crash_lost_tasks = 0;
    crash_steps = 0;
    ckpt_syncs = 0;
    frames_sent = 0;
    acks_sent = 0;
    acks_piggybacked = 0;
    tasks_sent = 0;
    marks_coalesced = 0;
    lat_e2e = Dgr_obs.Hist.create ();
    lat_queue = Dgr_obs.Hist.create ();
    lat_net = Dgr_obs.Hist.create ();
    lat_retx = Dgr_obs.Hist.create ();
    lat_recovery = Dgr_obs.Hist.create ();
    health_mark_stalls = 0;
    health_quiescence_stalls = 0;
    health_retx_storms = 0;
  }

let record_pause t steps =
  Stats.add t.pauses steps;
  t.total_pause_steps <- t.total_pause_steps + steps

(* Fold a per-PE metrics sink into [t] and zero it. Only the counters a
   PE can touch while executing its budget are merged — pauses, pool
   depth, completion and the fault/GC counters are recorded serially by
   the engine and never live in a per-PE sink. The whole fold is gated
   on the sink being dirty at all, so a PE that executed nothing this
   step costs the barrier one branch (the counters are non-negative, so
   a zero sum means every one is zero); the histogram absorbs below are
   themselves O(buckets touched). *)
let absorb t src =
  if
    src.reduction_executed + src.marking_executed + src.stale_marks_dropped
    + src.remote_messages + src.local_messages + src.tasks_purged
    + src.deadlocks_recovered <> 0
    || Dgr_obs.Hist.count src.lat_e2e > 0
  then begin
    t.reduction_executed <- t.reduction_executed + src.reduction_executed;
    src.reduction_executed <- 0;
    t.marking_executed <- t.marking_executed + src.marking_executed;
    src.marking_executed <- 0;
    t.stale_marks_dropped <- t.stale_marks_dropped + src.stale_marks_dropped;
    src.stale_marks_dropped <- 0;
    t.remote_messages <- t.remote_messages + src.remote_messages;
    src.remote_messages <- 0;
    t.local_messages <- t.local_messages + src.local_messages;
    src.local_messages <- 0;
    t.tasks_purged <- t.tasks_purged + src.tasks_purged;
    src.tasks_purged <- 0;
    t.deadlocks_recovered <- t.deadlocks_recovered + src.deadlocks_recovered;
    src.deadlocks_recovered <- 0;
    (* histogram merge is associative and order-independent, so per-PE
       latency sinks absorb to the same totals at any domain count *)
    Dgr_obs.Hist.absorb ~into:t.lat_e2e src.lat_e2e;
    Dgr_obs.Hist.absorb ~into:t.lat_queue src.lat_queue;
    Dgr_obs.Hist.absorb ~into:t.lat_net src.lat_net;
    Dgr_obs.Hist.absorb ~into:t.lat_retx src.lat_retx
  end

(* Machine-readable run metrics. All scalar counters plus fixed summary
   statistics for the sampled series; field order is fixed and floats are
   printed with a fixed precision, so equal metrics serialize to equal
   bytes (the bench trajectories diff these files). *)
(* v4: crash counters (crashes/recoveries/crash_rehomed/crash_lost_tasks)
   and the "recovery" latency histogram.
   v5: stale_marks_dropped (epoch-tagged marking — debris from a
   superseded wave dropped at dispatch). *)
let schema_version = 5

let to_json t =
  let b = Buffer.create 512 in
  let stats name (s : Stats.t) =
    if Stats.count s = 0 then
      Printf.sprintf "\"%s\":{\"count\":0,\"total\":0,\"mean\":0.00,\"max\":0}" name
    else
      Printf.sprintf "\"%s\":{\"count\":%d,\"total\":%.0f,\"mean\":%.2f,\"max\":%.0f}" name
        (Stats.count s) (Stats.total s) (Stats.mean s) (Stats.max_value s)
  in
  Printf.bprintf b "{\"schema_version\":%d," schema_version;
  Printf.bprintf b
    "\"steps\":%d,\"reduction_executed\":%d,\"marking_executed\":%d,\"stale_marks_dropped\":%d,\"remote_messages\":%d,\"local_messages\":%d,\"tasks_purged\":%d,\"cycles_completed\":%d,\"stw_collections\":%d,\"total_pause_steps\":%d,%s,\"completion_step\":%s,%s,\"peak_live\":%d,\"deadlocks_recovered\":%d,\"msgs_dropped\":%d,\"msgs_duplicated\":%d,\"msgs_delayed\":%d,\"retransmits\":%d,\"dup_suppressed\":%d,\"stalls\":%d,\"stall_steps\":%d"
    t.steps t.reduction_executed t.marking_executed t.stale_marks_dropped t.remote_messages t.local_messages
    t.tasks_purged t.cycles_completed t.stw_collections t.total_pause_steps
    (stats "pauses" t.pauses)
    (match t.completion_step with Some s -> string_of_int s | None -> "null")
    (stats "pool_depth" t.pool_depth)
    t.peak_live t.deadlocks_recovered t.msgs_dropped t.msgs_duplicated t.msgs_delayed
    t.retransmits t.dup_suppressed t.stalls t.stall_steps;
  Printf.bprintf b
    ",\"crashes\":%d,\"recoveries\":%d,\"crash_rehomed\":%d,\"crash_lost_tasks\":%d"
    t.crashes t.recoveries t.crash_rehomed t.crash_lost_tasks;
  Printf.bprintf b
    ",\"frames_sent\":%d,\"acks_sent\":%d,\"acks_piggybacked\":%d,\"tasks_sent\":%d,\"marks_coalesced\":%d,\"tasks_per_frame\":%.2f"
    t.frames_sent t.acks_sent t.acks_piggybacked t.tasks_sent t.marks_coalesced
    (if t.frames_sent = 0 then 0.0
     else float_of_int t.tasks_sent /. float_of_int t.frames_sent);
  Printf.bprintf b
    ",\"latency\":{\"e2e\":%s,\"queue\":%s,\"net\":%s,\"retx\":%s,\"recovery\":%s}"
    (Dgr_obs.Hist.to_json t.lat_e2e)
    (Dgr_obs.Hist.to_json t.lat_queue)
    (Dgr_obs.Hist.to_json t.lat_net)
    (Dgr_obs.Hist.to_json t.lat_retx)
    (Dgr_obs.Hist.to_json t.lat_recovery);
  Printf.bprintf b
    ",\"health\":{\"mark_wave_stalls\":%d,\"quiescence_stalls\":%d,\"retransmit_storms\":%d}}"
    t.health_mark_stalls t.health_quiescence_stalls t.health_retx_storms;
  Buffer.contents b

let pp_summary fmt t =
  Format.fprintf fmt
    "@[<v>steps=%d reduction=%d marking=%d msgs(remote/local)=%d/%d purged=%d cycles=%d \
     stw=%d pause(total/max)=%d/%.0f completion=%s peak_live=%d@]"
    t.steps t.reduction_executed t.marking_executed t.remote_messages t.local_messages
    t.tasks_purged t.cycles_completed t.stw_collections t.total_pause_steps
    (if Stats.count t.pauses = 0 then 0.0 else Stats.max_value t.pauses)
    (match t.completion_step with Some s -> string_of_int s | None -> "-")
    t.peak_live;
  if
    t.msgs_dropped > 0 || t.msgs_duplicated > 0 || t.msgs_delayed > 0 || t.retransmits > 0
    || t.stalls > 0
  then
    Format.fprintf fmt
      "@ @[faults: dropped=%d duplicated=%d delayed=%d retransmits=%d dup_suppressed=%d \
       stalls=%d stall_steps=%d@]"
      t.msgs_dropped t.msgs_duplicated t.msgs_delayed t.retransmits t.dup_suppressed
      t.stalls t.stall_steps;
  if t.frames_sent > 0 then
    Format.fprintf fmt
      "@ @[transport: frames=%d tasks=%d tasks/frame=%.2f acks=%d(+%d piggybacked)@]"
      t.frames_sent t.tasks_sent
      (float_of_int t.tasks_sent /. float_of_int t.frames_sent)
      t.acks_sent t.acks_piggybacked;
  if Dgr_obs.Hist.count t.lat_e2e > 0 then
    Format.fprintf fmt
      "@ @[latency(e2e steps): p50=%d p90=%d p99=%d p999=%d max=%d over %d tasks@]"
      (Dgr_obs.Hist.percentile t.lat_e2e 50.0)
      (Dgr_obs.Hist.percentile t.lat_e2e 90.0)
      (Dgr_obs.Hist.percentile t.lat_e2e 99.0)
      (Dgr_obs.Hist.percentile t.lat_e2e 99.9)
      (Dgr_obs.Hist.max_value t.lat_e2e)
      (Dgr_obs.Hist.count t.lat_e2e);
  if t.crashes > 0 || t.recoveries > 0 then
    Format.fprintf fmt
      "@ @[crashes: crashed=%d recovered=%d rehomed=%d lost_tasks=%d@]"
      t.crashes t.recoveries t.crash_rehomed t.crash_lost_tasks;
  if t.health_mark_stalls > 0 || t.health_quiescence_stalls > 0
     || t.health_retx_storms > 0 then
    Format.fprintf fmt
      "@ @[health: mark_wave_stalls=%d quiescence_stalls=%d retransmit_storms=%d@]"
      t.health_mark_stalls t.health_quiescence_stalls t.health_retx_storms
