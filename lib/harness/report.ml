(* Post-run analyzer: the [dgr report] text. Everything here is derived
   from a finished engine's lineage store, latency histograms, health
   counters and (optionally) its step-phase profile — no re-running, no
   trace files. The deterministic sections are byte-identical for a
   (config, seed) pair at every domain count; [~deterministic:true]
   omits the wall-clock profile section so the whole report is. *)

open Dgr_sim

let pct h p = Dgr_obs.Hist.percentile h p

let hist_row b name h =
  if Dgr_obs.Hist.count h = 0 then
    Printf.bprintf b "  %-8s %8s\n" name "-"
  else
    Printf.bprintf b "  %-8s %8d %8.2f %6d %6d %6d %6d %6d\n" name
      (Dgr_obs.Hist.count h) (Dgr_obs.Hist.mean h) (pct h 50.0) (pct h 90.0)
      (pct h 99.0) (pct h 99.9)
      (Dgr_obs.Hist.max_value h)

(* Top [n] lineages by end-to-end span (injection → last execution):
   the run's critical paths. Selection sort into a small array — the
   store can hold thousands of lineages and we keep five. *)
let critical_paths lineage n =
  let top = ref [] in
  Dgr_obs.Lineage.iter_lineages lineage
    (fun ~lin ~injected ~last ~tasks ~depth ->
      if tasks > 0 then begin
        let span = last - injected + 1 in
        top := (span, lin, injected, last, tasks, depth) :: !top
      end);
  let all =
    List.sort
      (fun (s1, l1, _, _, _, _) (s2, l2, _, _, _, _) ->
        if s2 <> s1 then compare s2 s1 else compare l1 l2)
      !top
  in
  List.filteri (fun i _ -> i < n) all

let render ?(deterministic = false) e =
  let b = Buffer.create 2048 in
  let m = Engine.metrics e in
  let lineage = Engine.lineage e in
  Printf.bprintf b "== dgr report ==\n";
  Printf.bprintf b
    "steps=%d reduction=%d marking=%d completion=%s cycles=%d\n"
    m.Metrics.steps m.Metrics.reduction_executed m.Metrics.marking_executed
    (match m.Metrics.completion_step with Some s -> string_of_int s | None -> "-")
    m.Metrics.cycles_completed;
  Printf.bprintf b
    "lineages=%d tickets: closed=%d purged=%d in_flight=%d\n\n"
    (Dgr_obs.Lineage.lineages lineage)
    (Dgr_obs.Lineage.closed lineage)
    (Dgr_obs.Lineage.dropped lineage)
    (Dgr_obs.Lineage.in_flight lineage);
  (* Latency: the four components, each its own histogram. *)
  Printf.bprintf b "-- task latency (steps) --\n";
  Printf.bprintf b "  %-8s %8s %8s %6s %6s %6s %6s %6s\n" "" "count" "mean"
    "p50" "p90" "p99" "p999" "max";
  hist_row b "e2e" m.Metrics.lat_e2e;
  hist_row b "queue" m.Metrics.lat_queue;
  hist_row b "network" m.Metrics.lat_net;
  hist_row b "retx" m.Metrics.lat_retx;
  (* Mean decomposition: e2e = network + retx + queue + 1 (execution). *)
  if Dgr_obs.Hist.count m.Metrics.lat_e2e > 0 then begin
    let e2e = Dgr_obs.Hist.mean m.Metrics.lat_e2e in
    let part name h =
      let v = Dgr_obs.Hist.mean h in
      Printf.bprintf b "  %-8s %6.2f steps  %5.1f%%\n" name v
        (if e2e <= 0.0 then 0.0 else 100.0 *. v /. e2e)
    in
    Printf.bprintf b "\n-- mean end-to-end decomposition --\n";
    part "network" m.Metrics.lat_net;
    part "retx" m.Metrics.lat_retx;
    part "queue" m.Metrics.lat_queue;
    Printf.bprintf b "  %-8s %6.2f steps  %5.1f%%\n" "execute" 1.0
      (if e2e <= 0.0 then 0.0 else 100.0 /. e2e);
    Printf.bprintf b "  %-8s %6.2f steps\n" "e2e" e2e
  end;
  (* Critical path: the injections whose causal trees ran longest. *)
  (match critical_paths lineage 5 with
  | [] -> ()
  | paths ->
    Printf.bprintf b "\n-- critical paths (top %d lineages by span) --\n"
      (List.length paths);
    Printf.bprintf b "  %-8s %8s %8s %8s %8s %6s\n" "lineage" "injected"
      "last" "span" "tasks" "depth";
    List.iter
      (fun (span, lin, injected, last, tasks, depth) ->
        Printf.bprintf b "  %-8d %8d %8d %8d %8d %6d\n" lin injected last span
          tasks depth)
      paths);
  (* Health verdicts — zero lines are worth printing: "no stalls" is the
     statement the watchdogs exist to make. *)
  Printf.bprintf b "\n-- health --\n";
  Printf.bprintf b
    "  mark_wave_stalls=%d quiescence_stalls=%d retransmit_storms=%d\n"
    m.Metrics.health_mark_stalls m.Metrics.health_quiescence_stalls
    m.Metrics.health_retx_storms;
  (* Crash recovery — only when the run could actually crash, so
     fault-free reports stay byte-identical to pre-crash-plane builds. *)
  if m.Metrics.crashes > 0 || m.Metrics.recoveries > 0 then begin
    Printf.bprintf b "\n-- crash recovery --\n";
    Printf.bprintf b "  crashes=%d recoveries=%d rehomed=%d lost_tasks=%d\n"
      m.Metrics.crashes m.Metrics.recoveries m.Metrics.crash_rehomed
      m.Metrics.crash_lost_tasks;
    Printf.bprintf b "  %-8s %8s %8s %6s %6s %6s %6s %6s\n" "" "count" "mean"
      "p50" "p90" "p99" "p999" "max";
    hist_row b "downtime" m.Metrics.lat_recovery
  end;
  (* Load shape: how evenly the PEs share the executed work, and how
     much of the traffic crosses a PE boundary. *)
  let per_pe = Engine.executed_per_pe e in
  let total = Array.fold_left ( + ) 0 per_pe in
  if total > 0 then begin
    let mean = float_of_int total /. float_of_int (Array.length per_pe) in
    let msgs = m.Metrics.remote_messages + m.Metrics.local_messages in
    Printf.bprintf b "\n-- load shape --\n";
    let max = Array.fold_left Int.max 0 per_pe in
    Printf.bprintf b "  executed/PE: max=%d mean=%.1f max/mean=%.3f\n" max mean
      (float_of_int max /. mean);
    Printf.bprintf b "  executed by PE:%s\n"
      (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %d") per_pe)));
    let remote = m.Metrics.remote_messages in
    Printf.bprintf b "  remote messages: %d of %d (%.1f%%)\n" remote msgs
      (if msgs = 0 then 0.0 else 100.0 *. float_of_int remote /. float_of_int msgs);
    (* A step visits only its busy PEs: this follows the work, not the
       machine size. *)
    let visits = Engine.pe_visits e in
    Printf.bprintf b "  PE visits: %d over %d steps (%.2f/step of %d PEs)\n" visits
      m.Metrics.steps
      (if m.Metrics.steps = 0 then 0.0 else float_of_int visits /. float_of_int m.Metrics.steps)
      (Array.length per_pe)
  end;
  (* Expansion churn: an expansion the free list cannot supply parks and
     is retried, so stalls per expansion counts the futile attempts. *)
  let red = Engine.reducer e in
  let expansions = red.Dgr_reduction.Reducer.expansions in
  let stalls = red.Dgr_reduction.Reducer.alloc_stalls in
  if expansions + stalls > 0 then begin
    Printf.bprintf b "\n-- reducer --\n";
    Printf.bprintf b "  expansions=%d alloc_stalls=%d stalls/expansion=%.2f\n" expansions stalls
      (if expansions = 0 then 0.0 else float_of_int stalls /. float_of_int expansions)
  end;
  if m.Metrics.frames_sent > 0 then begin
    Printf.bprintf b "\n-- transport --\n";
    Printf.bprintf b
      "  frames=%d tasks=%d tasks/frame=%.2f acks=%d(+%d piggybacked)\n"
      m.Metrics.frames_sent m.Metrics.tasks_sent
      (float_of_int m.Metrics.tasks_sent /. float_of_int m.Metrics.frames_sent)
      m.Metrics.acks_sent m.Metrics.acks_piggybacked;
    (* Only a step on which two or more PEs crash syncs the checkpoints. *)
    if m.Metrics.crash_steps > 0 then
      Printf.bprintf b "  crash steps=%d checkpoint syncs=%d\n" m.Metrics.crash_steps
        m.Metrics.ckpt_syncs
  end;
  (* Step phases: wall-clock, so omitted from deterministic reports. The
     time shares are estimates from the clocked steps, whose basis the
     section names; the minor words are exact. *)
  if not deterministic then begin
    let p = Engine.profile e in
    let domains = Engine.Config.domains (Engine.config e) in
    let share part =
      if p.Profile.total_ns <= 0.0 then 0.0
      else 100.0 *. part /. p.Profile.total_ns
    in
    Printf.bprintf b "\n-- step phases (wall clock) --\n";
    Printf.bprintf b "  total=%.1fms over %d steps at domains=%d\n"
      (p.Profile.total_ns /. 1e6) p.Profile.steps domains;
    Printf.bprintf b
      "  clocked %d of %d steps (1 in %d); restructure and stop-the-world marks always\n"
      p.Profile.clocked p.Profile.steps Profile.stride;
    Printf.bprintf b
      "  transport=%.1f%% execute=%.1f%% merge=%.1f%% gc=%.1f%% bookkeeping=%.1f%%\n"
      (share p.Profile.transport_ns) (share p.Profile.execute_ns) (share p.Profile.merge_ns)
      (share p.Profile.gc_ns) (share p.Profile.book_ns);
    Printf.bprintf b "  within execute: marking=%.1f%% reduction=%.1f%%\n"
      (share p.Profile.mark_ns) (share p.Profile.red_ns);
    let steps = float_of_int (Stdlib.max 1 p.Profile.steps) in
    (* Each shard's budget loops, side by side: how the execute span
       splits over the shards. *)
    if Array.length p.Profile.shard_ns > 1 then begin
      Printf.bprintf b "  shard busy us/step:";
      Array.iteri
        (fun d ns -> Printf.bprintf b " %d=%.1f" d (ns /. 1e3 /. steps))
        p.Profile.shard_ns;
      Buffer.add_char b '\n'
    end;
    Printf.bprintf b
      "  minor words/step: transport=%.0f execute=%.0f merge=%.0f gc=%.0f \
       bookkeeping=%.0f\n"
      (p.Profile.transport_mw /. steps)
      (p.Profile.execute_mw /. steps)
      (p.Profile.merge_mw /. steps)
      (p.Profile.gc_mw /. steps)
      (p.Profile.book_mw /. steps);
    (* Per completed cycle, the GC phase's words compare the tree and
       flood schemes whatever their cycle lengths. *)
    if m.Metrics.cycles_completed > 0 then
      Printf.bprintf b "  gc minor words/cycle: %.0f (cycles=%d)\n"
        (p.Profile.gc_mw /. float_of_int m.Metrics.cycles_completed)
        m.Metrics.cycles_completed;
    Printf.bprintf b "  minor collections/step: %.4f (%d over the run at domains=%d)\n"
      (float_of_int p.Profile.minor_gcs /. steps)
      p.Profile.minor_gcs domains;
    Printf.bprintf b
      "  serial_fraction=%.3f (Amdahl ceiling: x%.2f at 2 domains, x%.2f at \
       4, x%.2f at 8)\n"
      (Profile.serial_fraction p)
      (Profile.amdahl_speedup p ~domains:2)
      (Profile.amdahl_speedup p ~domains:4)
      (Profile.amdahl_speedup p ~domains:8);
    (* The step-barrier bill: what merging the per-PE buffers costs, and
       where inside the merge the time goes. Everything on this line
       runs serially at the barrier. *)
    if p.Profile.merge_ns > 0.0 then begin
      let mshare part =
        if p.Profile.merge_ns <= 0.0 then 0.0
        else 100.0 *. part /. p.Profile.merge_ns
      in
      Printf.bprintf b "\n-- merge cost (step barrier) --\n";
      Printf.bprintf b
        "  merge=%.1f%% of step, %.1fus/step, %.0f minor words/merge\n"
        (share p.Profile.merge_ns)
        (p.Profile.merge_ns /. 1e3 /. steps)
        (p.Profile.merge_mw /. steps);
      Printf.bprintf b
        "  within merge: drain=%.1f%% absorb=%.1f%% close=%.1f%% seal=%.1f%% \
         replay=%.1f%%\n"
        (mshare p.Profile.drain_ns) (mshare p.Profile.absorb_ns)
        (mshare p.Profile.close_ns)
        (mshare p.Profile.flush_ns)
        (mshare p.Profile.replay_ns)
    end
  end;
  Buffer.contents b
