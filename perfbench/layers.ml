(* Per-layer metrics: deterministic operation counts from each machine's
   [Metrics], host time and allocation per step phase from its
   [Profile], and unit costs from the ladder. Counts are summed over the
   machines of a rep before any ratio is taken. *)

open Dgr_graph
open Dgr_sim
module Hist = Dgr_obs.Hist

type acc = {
  prof : Profile.t;  (** field-wise sum over machines *)
  mutable steps : int;
  mutable tasks_sent : int;
  mutable frames : int;
  mutable coalesced : int;
  mutable retransmits : int;
  mutable acks : int;
  mutable marks : int;
  mutable stale : int;
  mutable reductions : int;
  mutable cycles : int;
  mutable pause_steps : int;
  mutable reclaimed : int;
  mutable crashes : int;
  mutable rehomed : int;
  mutable releases : int;
  mutable depth_total : float;
  mutable depth_samples : int;
  mutable live : int;
  mutable peak_live : int;
  mutable checkpointing : bool;  (** the crash plane syncs checkpoints every step *)
  net : Hist.t;  (** network transit *)
  retx : Hist.t;  (** retransmit delay *)
  queue : Hist.t;
  recovery : Hist.t;
}

let create () =
  {
    prof = Profile.create ();
    steps = 0;
    tasks_sent = 0;
    frames = 0;
    coalesced = 0;
    retransmits = 0;
    acks = 0;
    marks = 0;
    stale = 0;
    reductions = 0;
    cycles = 0;
    pause_steps = 0;
    reclaimed = 0;
    crashes = 0;
    rehomed = 0;
    releases = 0;
    depth_total = 0.0;
    depth_samples = 0;
    live = 0;
    peak_live = 0;
    checkpointing = false;
    net = Hist.create ();
    retx = Hist.create ();
    queue = Hist.create ();
    recovery = Hist.create ();
  }

let add_profile (s : Profile.t) (p : Profile.t) =
  s.steps <- s.steps + p.steps;
  s.total_ns <- s.total_ns +. p.total_ns;
  s.transport_ns <- s.transport_ns +. p.transport_ns;
  s.execute_ns <- s.execute_ns +. p.execute_ns;
  s.sexec_ns <- s.sexec_ns +. p.sexec_ns;
  s.merge_ns <- s.merge_ns +. p.merge_ns;
  s.drain_ns <- s.drain_ns +. p.drain_ns;
  s.absorb_ns <- s.absorb_ns +. p.absorb_ns;
  s.close_ns <- s.close_ns +. p.close_ns;
  s.pflush_ns <- s.pflush_ns +. p.pflush_ns;
  s.flush_ns <- s.flush_ns +. p.flush_ns;
  s.replay_ns <- s.replay_ns +. p.replay_ns;
  s.gc_ns <- s.gc_ns +. p.gc_ns;
  s.book_ns <- s.book_ns +. p.book_ns;
  s.restr_ns <- s.restr_ns +. p.restr_ns;
  s.mark_ns <- s.mark_ns +. p.mark_ns;
  s.red_ns <- s.red_ns +. p.red_ns;
  s.total_mw <- s.total_mw +. p.total_mw;
  s.transport_mw <- s.transport_mw +. p.transport_mw;
  s.execute_mw <- s.execute_mw +. p.execute_mw;
  s.sexec_mw <- s.sexec_mw +. p.sexec_mw;
  s.merge_mw <- s.merge_mw +. p.merge_mw;
  s.gc_mw <- s.gc_mw +. p.gc_mw;
  s.book_mw <- s.book_mw +. p.book_mw

(* Fold one finished machine into [a]. Empties the machine's latency
   histograms, so call it after the machine's digest is taken. *)
let add a e =
  let m = Engine.metrics e in
  add_profile a.prof (Engine.profile e);
  a.steps <- a.steps + Engine.now e;
  a.tasks_sent <- a.tasks_sent + m.Metrics.tasks_sent;
  a.frames <- a.frames + m.frames_sent;
  a.coalesced <- a.coalesced + m.marks_coalesced;
  a.retransmits <- a.retransmits + m.retransmits;
  a.acks <- a.acks + m.acks_sent;
  a.marks <- a.marks + m.marking_executed;
  a.stale <- a.stale + m.stale_marks_dropped;
  a.reductions <- a.reductions + m.reduction_executed;
  a.cycles <- a.cycles + m.cycles_completed;
  a.pause_steps <- a.pause_steps + m.total_pause_steps;
  (match Engine.cycle e with
  | Some c -> a.reclaimed <- a.reclaimed + Dgr_core.Cycle.total_garbage_collected c
  | None -> ());
  a.crashes <- a.crashes + m.crashes;
  a.rehomed <- a.rehomed + m.crash_rehomed;
  let g = Engine.graph e in
  a.releases <- a.releases + Graph.releases g;
  a.depth_total <- a.depth_total +. Dgr_util.Stats.total m.pool_depth;
  a.depth_samples <- a.depth_samples + Dgr_util.Stats.count m.pool_depth;
  a.live <- Graph.live_count g;
  a.peak_live <- Int.max a.peak_live m.peak_live;
  a.checkpointing <- (Engine.Config.faults (Engine.config e)).Faults.crash > 0.0;
  Hist.absorb ~into:a.net m.lat_net;
  Hist.absorb ~into:a.retx m.lat_retx;
  Hist.absorb ~into:a.queue m.lat_queue;
  Hist.absorb ~into:a.recovery m.lat_recovery

let ratio x y = if y = 0.0 then 0.0 else x /. y
let ( // ) x y = ratio (float_of_int x) (float_of_int y)

(* Modelled step cost: each layer's operations per step times its ladder
   unit cost. The leftover is the share of the measured step time the
   ladder does not explain. *)
let leftover a (l : Ladder.t) ~step_ns =
  let per_step n = n // a.steps in
  let transport = if a.checkpointing then l.reliable.ns else l.send_deliver.ns in
  let modelled =
    (per_step a.tasks_sent *. transport)
    +. (per_step (a.marks + a.reductions) *. l.pool_push_pop.ns)
    +. (per_step a.marks *. l.mark.ns)
    +. (per_step a.releases *. l.alloc_release.ns)
    +. if a.checkpointing then l.checkpoint_sync.ns else 0.0
  in
  1.0 -. ratio modelled step_ns

let percentile_us durations p =
  let n = Array.length durations in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy durations in
    Array.sort Float.compare sorted;
    let rank = Int.max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
    sorted.(rank - 1) *. 1e6
  end

(* Every per-layer metric as [(name, unit, value)]. [lat] is the rep's
   reduction-task latency histogram, [steps_d1] and [steps_d2] are the
   traced reps' [engine.step] span durations, [sps] the untraced
   single-domain steps per second and [overhead] the tracing overhead. *)
let metrics a (l : Ladder.t) ~lat ~steps_d1 ~steps_d2 ~sps ~overhead =
  let p = a.prof in
  let share x = ratio x p.total_ns in
  let per_step x = ratio x (float_of_int p.steps) in
  let pct h q = float_of_int (Hist.percentile h q) in
  [
    ("engine.step_us_p50", "us", percentile_us steps_d1 50.0);
    ("engine.step_us_p99", "us", percentile_us steps_d1 99.0);
    ("engine.step_us_p50_2d", "us", percentile_us steps_d2 50.0);
    ("engine.step_us_p99_2d", "us", percentile_us steps_d2 99.0);
    ("engine.serial_fraction", "frac", Profile.serial_fraction p);
    ("engine.merge_share", "frac", share p.merge_ns);
    ("engine.execute_serial_share", "frac", share p.sexec_ns);
    ("merge.drain_share", "frac", share p.drain_ns);
    ("merge.absorb_share", "frac", share p.absorb_ns);
    ("merge.close_share", "frac", share p.close_ns);
    ("merge.flush_sharded_share", "frac", share p.pflush_ns);
    ("merge.flush_serial_share", "frac", share p.flush_ns);
    ("merge.replay_share", "frac", share p.replay_ns);
    ("engine.transport_share", "frac", share p.transport_ns);
    ("engine.execute_share", "frac", share p.execute_ns);
    ("engine.gc_share", "frac", share p.gc_ns);
    ("engine.bookkeeping_share", "frac", share p.book_ns);
    ("engine.alloc_words_per_step.transport", "words", per_step p.transport_mw);
    ("engine.alloc_words_per_step.execute", "words", per_step p.execute_mw);
    ("engine.alloc_words_per_step.execute_serial", "words", per_step p.sexec_mw);
    ("engine.alloc_words_per_step.merge", "words", per_step p.merge_mw);
    ("engine.alloc_words_per_step.gc", "words", per_step p.gc_mw);
    ("engine.alloc_words_per_step.bookkeeping", "words", per_step p.book_mw);
    ("network.tasks_per_step", "1/step", a.tasks_sent // a.steps);
    ("network.frames_per_step", "1/step", a.frames // a.steps);
    ("network.tasks_per_frame", "count", a.tasks_sent // a.frames);
    ("network.coalesced_frac", "frac", a.coalesced // (a.tasks_sent + a.coalesced));
    ("network.retransmits_per_kframe", "count", 1e3 *. (a.retransmits // a.frames));
    ("network.acks_per_kframe", "count", 1e3 *. (a.acks // a.frames));
    (* A task's network wait is transit plus retransmit delay; the sum of
       the two components' 99th percentiles bounds its 99th percentile. *)
    ("network.sim_wait_p99_steps", "steps", pct a.net 99.0 +. pct a.retx 99.0);
    ("network.send_deliver_ns_per_task", "ns", l.send_deliver.ns);
    ("network.send_deliver_words_per_task", "words", l.send_deliver.words);
    ("network.reliable_ns_per_task", "ns", l.reliable.ns);
    ("network.reliable_words_per_task", "words", l.reliable.words);
    ("pool.sim_queue_p99_steps", "steps", pct a.queue 99.0);
    ("pool.depth_mean", "count", ratio a.depth_total (float_of_int a.depth_samples));
    ("pool.push_pop_ns", "ns", l.pool_push_pop.ns);
    ("pool.push_pop_words", "words", l.pool_push_pop.words);
    ("pqueue.add_pop_ns", "ns", l.pqueue_add_pop.ns);
    ("pqueue.add_pop_words", "words", l.pqueue_add_pop.words);
    ("marking.tasks_per_step", "1/step", a.marks // a.steps);
    ("marking.us_per_kmark", "us", ratio p.mark_ns (float_of_int a.marks));
    ("marking.ns_per_mark", "ns", l.mark.ns);
    ("marking.words_per_mark", "words", l.mark.words);
    ("marking.stale_frac", "frac", a.stale // a.marks);
    ("cycle.cycles", "count", float_of_int a.cycles);
    ("restructure.pause_steps_per_cycle", "steps", a.pause_steps // a.cycles);
    ("restructure.reclaimed_per_cycle", "count", a.reclaimed // a.cycles);
    ("restructure.share", "frac", share p.restr_ns);
    ("reducer.tasks_per_step", "1/step", a.reductions // a.steps);
    ("reducer.us_per_ktask", "us", ratio p.red_ns (float_of_int a.reductions));
    (* End-to-end, but not steady across seeds on the storms: their
       median task falls between a fast local mode and a mode that waits
       out a restructure pause. *)
    ("reducer.sim_lat_p50_steps", "steps", pct lat 50.0);
    ("graph.live", "count", float_of_int a.live);
    ("graph.peak_live", "count", float_of_int a.peak_live);
    ("graph.alloc_release_ns", "ns", l.alloc_release.ns);
    ("graph.alloc_release_words", "words", l.alloc_release.words);
    ("graph.iter_children_ns_per_edge", "ns", l.iter_children.ns);
    ("graph.iter_children_words_per_edge", "words", l.iter_children.words);
    ("checkpoint.sync_us", "us", l.checkpoint_sync.ns /. 1e3);
    ("checkpoint.sync_words", "words", l.checkpoint_sync.words);
    ("checkpoint.restore_us", "us", l.checkpoint_restore.ns /. 1e3);
    ("checkpoint.restore_words", "words", l.checkpoint_restore.words);
    ("faults.crashes", "count", float_of_int a.crashes);
    ("faults.rehomed_per_crash", "count", a.rehomed // a.crashes);
    ("faults.recovery_p50_steps", "steps", pct a.recovery 50.0);
    ("attribution.leftover_frac", "frac", leftover a l ~step_ns:(ratio 1e9 sps));
    ("trace.overhead_frac", "frac", overhead);
  ]
