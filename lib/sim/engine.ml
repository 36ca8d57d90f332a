open Dgr_util
open Dgr_graph
open Dgr_task
open Task
module Marker = Dgr_core.Marker
module Mutator = Dgr_core.Mutator
module Cycle = Dgr_core.Cycle
module Run = Dgr_core.Run
module Flood = Dgr_core.Flood
module Invariants = Dgr_core.Invariants
module Reducer = Dgr_reduction.Reducer
module Restructure = Dgr_core.Restructure
module Refcount = Dgr_baseline.Refcount

type gc_mode =
  | No_gc
  | Concurrent of { deadlock_every : int; idle_gap : int }
  | Stop_the_world of { every : int }
  | Refcount

module Config = struct
  type machine = {
    num_pes : int;
    tasks_per_step : int;
    pool_policy : Pool.policy;
    speculate_if : bool;
    seed : int;
    domains : int;
  }

  type gc = {
    mode : gc_mode;
    heap_size : int option;
    gc_work_factor : int;
    marking : Cycle.scheme;
    recover_deadlock : bool;
  }

  type network = { latency : int; jitter : float; faults : Faults.spec; batch : bool }

  type t = { machine : machine; gc : gc; network : network }

  (* A machine with no PE, no shard, or a per-step budget of nothing
     would fail deep inside [Graph.create], step no PE, or idle until the
     step limit: refuse it here, in [make] and the updaters alike. So is
     a heap bound with no slot ([None] is the unbounded heap): [create]
     would raise it to the initial vertex count, where every expansion
     stalls. *)
  let at_least lo field v =
    if v < lo then
      invalid_arg (Printf.sprintf "Engine.Config: %s must be at least %d, got %d" field lo v);
    v

  let positive = at_least 1

  (* A stop-the-world period below 1 never collects, not even under
     pressure; a negative idle gap or M_T period means nothing. An M_T
     period of 0 disables M_T. *)
  let gc_mode = function
    | Stop_the_world { every } as m ->
      ignore (positive "Stop_the_world.every" every);
      m
    | Concurrent { deadlock_every; idle_gap } as m ->
      ignore (at_least 0 "Concurrent.deadlock_every" deadlock_every);
      ignore (at_least 0 "Concurrent.idle_gap" idle_gap);
      m
    | (No_gc | Refcount) as m -> m

  (* Jitter and the fault rates are probabilities; NaN is refused too. *)
  let probability field p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Engine.Config: %s must be in [0, 1], got %g" field p);
    p

  (* A channel that drops every frame loses its retransmits and acks
     too, so nothing is ever delivered: [drop] must stay below 1. The
     other rates may reach 1. A stall or a downtime is drawn from
     [1, max], so a max below 1 names no length at all. *)
  let rates (f : Faults.spec) =
    List.iter
      (fun (field, p) -> ignore (probability ("faults." ^ field) p))
      [
        ("drop", f.drop);
        ("duplicate", f.duplicate);
        ("delay", f.delay);
        ("stall", f.stall);
        ("crash", f.crash);
      ];
    if f.drop >= 1.0 then
      invalid_arg (Printf.sprintf "Engine.Config: faults.drop must be below 1, got %g" f.drop);
    ignore (positive "faults.stall_max" f.stall_max);
    ignore (positive "faults.crash_down_max" f.crash_down_max);
    f

  let make ?(num_pes = 4) ?(latency = 4) ?(tasks_per_step = 2) ?(gc_work_factor = 8)
      ?(heap_size = Some 50_000) ?(pool_policy = Pool.Dynamic)
      ?(speculate_if = true) ?(gc = Concurrent { deadlock_every = 1; idle_gap = 50 })
      ?(marking = Cycle.Tree) ?(recover_deadlock = false) ?(jitter = 0.0) ?(seed = 0)
      ?(faults = Faults.none) ?(domains = 1) ?(batch = true) () =
    let num_pes = positive "num_pes" num_pes in
    let tasks_per_step = positive "tasks_per_step" tasks_per_step in
    let latency = positive "latency" latency in
    let gc = gc_mode gc in
    let gc_work_factor = positive "gc_work_factor" gc_work_factor in
    let heap_size = Option.map (positive "heap_size") heap_size in
    let domains = Int.min (positive "domains" domains) num_pes in
    let jitter = probability "jitter" jitter in
    let faults = rates faults in
    {
      machine =
        { num_pes; tasks_per_step; pool_policy; speculate_if; seed; domains };
      gc = { mode = gc; heap_size; gc_work_factor; marking; recover_deadlock };
      network = { latency; jitter; faults; batch };
    }

  let default = make ()

  let num_pes t = t.machine.num_pes
  let latency t = t.network.latency
  let tasks_per_step t = t.machine.tasks_per_step
  let gc_work_factor t = t.gc.gc_work_factor
  let heap_size t = t.gc.heap_size
  let pool_policy t = t.machine.pool_policy
  let speculate_if t = t.machine.speculate_if
  let gc t = t.gc.mode
  let marking t = t.gc.marking
  let recover_deadlock t = t.gc.recover_deadlock
  let jitter t = t.network.jitter
  let seed t = t.machine.seed
  let faults t = t.network.faults
  let domains t = t.machine.domains
  let batch t = t.network.batch

  (* A shard holds at least one PE: [domains] is clamped to [num_pes]
     here, so every reader sees the count the machine runs. *)
  let with_num_pes v t =
    let num_pes = positive "num_pes" v in
    { t with machine = { t.machine with num_pes; domains = Int.min t.machine.domains num_pes } }

  let with_latency v t = { t with network = { t.network with latency = positive "latency" v } }

  let with_tasks_per_step v t =
    { t with machine = { t.machine with tasks_per_step = positive "tasks_per_step" v } }

  let with_gc_work_factor v t =
    { t with gc = { t.gc with gc_work_factor = positive "gc_work_factor" v } }
  let with_gc v t = { t with gc = { t.gc with mode = gc_mode v } }
  let with_jitter v t = { t with network = { t.network with jitter = probability "jitter" v } }
  let with_faults v t = { t with network = { t.network with faults = rates v } }
  let with_domains v t =
    let domains = Int.min (positive "domains" v) t.machine.num_pes in
    { t with machine = { t.machine with domains } }
  let with_batch v t = { t with network = { t.network with batch = v } }
end

type config = Config.t

(* A sender's execution context. Everything a PE's budget touches during
   a step lives here (or in graph/pool state or a network sender record
   only its owner mutates), so no PE's budget reads what another PE's
   wrote this step, and the step barrier merges the contexts in
   ascending PE order: how the PEs are grouped into shards never shows. The controller has one too ([t.cctl], [cpe = -1]): its sinks
   are the machine's own, and it is [serial] — it runs
   controller-addressed tasks at once, where a PE's context defers them
   to the barrier. *)
type pe_ctx = {
  mutable cpe : int;
  mutable crng : Rng.t;  (** scheduling stream [Rng.stream ~seed cpe] *)
  serial : bool;  (** the controller's context: run its tasks now *)
  ctrl : Task.t Vec.t;  (** controller-addressed tasks, replayed at the barrier *)
  pred : Reducer.t;  (** private reducer: own counters/park list, shared graph *)
  pm : Metrics.t;  (** private counters, absorbed at the barrier *)
  sub : Dgr_obs.Recorder.t option;  (** private event buffer, drained at the barrier *)
  mutable clin : int;  (** lineage of the task this PE is executing; -1 outside *)
  mutable cdepth : int;  (** causal depth its children inherit *)
  cdone : int Vec.t;  (** tickets of executed tasks, closed at the barrier *)
  cdrop : int Vec.t;  (** tickets of stale pops, dropped at the barrier *)
  mutable cexec : Pool.red;
  mutable cdead : Pool.red;
  mutable cmark : Task.sink;
  mutable cemit : Task.sink;
      (** pre-bound [pe_execute], [pe_drop], [pe_execute_mark] and [send_mark],
          bound once at [create] so the budget loops build no closures *)
  ccoop : Mutator.coop_event Vec.t;
      (** cooperation events this PE's reductions deferred; replayed at
          the barrier in ascending PE order *)
  cinc : int Vec.t;
  cdec : int Vec.t;
      (** refcount increments / decrements this PE's mutations logged, as
          flat (parent, child) pairs; applied at the barrier *)
}

type t = {
  cfg : config;
  (* Hot knobs, denormalized out of [cfg] so the step loop never chases
     three records per field. *)
  num_pes : int;
  latency : int;
  tasks_per_step : int;
  gc_work_factor : int;
  jitter : float;
  gc_mode : gc_mode;
  domains : int;  (** shard count, clamped to [1, num_pes] *)
  g : Graph.t;
  pools : Pool.t array;
  busy : Bitset.t;
      (** the PEs with work: a pooled task, a parked mark frame, or a
          stall that began this step. A PE outside it has an empty pool
          and an empty inbox. *)
  visit : int array;
  mutable n_visit : int;
      (** the step's busy PEs, ascending, in [visit.(0 .. n_visit - 1)]:
          [gather] copies them out of [busy] once the step's work has
          arrived, and every per-PE pass of the step walks them and
          nothing else *)
  depths : int array;
      (** per PE: its pool depth at the last bookkeeping, 0 outside
          [busy] — the recorder's per-PE column, kept rather than built *)
  mutable visits : int;  (** PE turns the step loops have taken, summed over steps *)
  net : Network.t;
  mut : Mutator.t;
  cctl : pe_ctx;
      (** the controller's context: seeds, injection, barrier replay and
          deadlock recovery send through it; its reducer is the machine's *)
  mutable cyc : Cycle.t option;
  rc : Refcount.t option;
  recorder : Dgr_obs.Recorder.t option;
  m : Metrics.t;
  executed_by : int array;
      (** per PE: tasks (marks and reductions) its shard has executed,
          summed at the barrier — the load-shape meter *)
  lin : Dgr_obs.Lineage.t;  (** causal lineage tickets, one per pooled reduction *)
  prof : Profile.t;  (** step, clocked-step and minor-collection counts; [profile] adds the sums *)
  ph_ns : int array;  (** per phase: ns over the clocked steps, see [lap] *)
  ph_mw : float array;  (** per phase: minor words over every step *)
  shard_ph : int array;
      (** per shard [d]: marking ([2d]) and reduction ([2d + 1]) budget
          ns over the clocked steps *)
  mutable clocked : bool;  (** this step reads the clock: see [read] *)
  mutable now : int;
  mutable paused_until : int;
  mutable next_cycle_at : int;
  mutable next_stw_at : int;
  stw_verdicts : Restructure.verdicts;
      (** stop-the-world's restructure vectors, reused by every collection *)
  flt : Faults.t option;
  stall_until : int array;  (** per PE: first step it executes again *)
  (* Crash plane. [ckpts] is built lazily at the first step on which
     two or more PEs crash (so machines that never see one allocate
     nothing); [down_since] is -1 for a PE that is up. All of it is
     serial state, written only by the crash tick at the top of a step
     (or [inject_crash] between steps); the shards only ever {e read}
     [down_since]. *)
  mutable ckpts : Checkpoint.t array;  (** per-PE segment checkpoints *)
  down_until : int array;  (** per PE: first step it may recover *)
  down_since : int array;  (** per PE: step it crashed; -1 = up *)
  crash_down : int array;
      (** crash tick scratch, per PE: the downtime this step's dice gave
          it, 0 for no crash *)
  survivors : int array;  (** re-home scratch: the up PEs, ascending *)
  mutable n_survivors : int;
  mutable crash_used : bool;
      (** crashes possible (spec or injection): run the crash tick *)
  mutable ctxs : pe_ctx array;
  mutable exec_pe : int;
      (** the PE whose budget is running, -1 outside the shards: the
          coop sink, the refcount log and the ownership guard charge a
          mutation to it *)
  (* Health watchdogs: window-based progress monitors, re-armed on any
     progress and fired at most once per stall episode (resp. window). *)
  mutable wd_mark_last : int;  (** [marking_executed] at last mark progress *)
  mutable wd_mark_since : int;  (** step of last mark progress *)
  mutable wd_mark_fired : bool;
  mutable wd_exec_last : int;  (** total executed at last progress *)
  mutable wd_exec_since : int;
  mutable wd_exec_fired : bool;
  mutable wd_retx_last : int;  (** [retransmits] at the last window boundary *)
  mutable wd_retx_at : int;  (** next retransmit-window boundary *)
  mutable push_due : int -> int array -> int -> string -> unit;
      (** delivery's push into the destination pool, allocated once *)
  mutable mark_only : bool;
      (** budgets drain marking only — set while the machine is paused
          for restructure but the next wave's marks may flow *)
  mutable coop_sink : (Mutator.coop_event -> unit) option;
      (** routes a deferred cooperation event to the executing PE's
          context; installed on the mutator around the shards, and
          boxed once at [create] so installing it allocates nothing *)
}

(* The profiler's sums, per phase, in two flat arrays, so adding to a
   sum boxes nothing: [ph_ns] in integer ns, [ph_mw] in minor words. At
   each phase boundary [lap] closes the running phase and opens the
   next, so the phases partition the step. Minor words are read at every
   boundary of every step; the clock only on a clocked step, one in
   [Profile.stride] (see [read]). Slot [k_at] holds the last boundary's
   readings. Integer ns make every sum exact: the laps telescope, and a
   profile difference across a step is exactly what the step added. *)
let k_transport = 0
let k_execute = 1
let k_drain = 2
let k_absorb = 3
let k_close = 4
let k_seal = 5
let k_replay = 6
let k_gc = 7
let k_book = 8
let k_restr = 9
let k_stw = 10
let k_total = 11
let k_at = 12

(* Wall clock in ns since the program started. [Unix.gettimeofday] and
   [Gc.minor_words] are unboxed externals, so a boundary allocates
   nothing; the difference from [epoch] is exact, so readings never go
   backwards across the conversion. *)
let epoch = Unix.gettimeofday ()

let clock () = Float.to_int ((Unix.gettimeofday () -. epoch) *. 1e9)

(* A clock reading (~50 ns) is a large share of a light step, so only a
   clocked step reads the clock: the first of every [Profile.stride],
   keyed on [now]. An unclocked step reads 0 at every boundary, and its
   laps add 0. *)
let read t = if t.clocked then clock () else 0

let lap t k =
  let c = read t and w = Gc.minor_words () in
  let ns = t.ph_ns and mw = t.ph_mw in
  ns.(k) <- ns.(k) + (c - ns.(k_at));
  ns.(k_at) <- c;
  mw.(k) <- mw.(k) +. (w -. mw.(k_at));
  mw.(k_at) <- w

let throughput t = Int.max 1 (t.num_pes * t.tasks_per_step)

let obs t kind =
  match t.recorder with None -> () | Some r -> Dgr_obs.Recorder.emit r kind

(* Destination PE of a task's vid, or [-1] for controller-addressed
   tasks. Unboxed (no option) — this runs once per send. *)
let pe_of_vid t v = if v < 0 then -1 else Graph.pe t.g v

(* The handler of the marking phase in progress, if any — for a flood,
   the source of truth for what epoch termination credits should speak.
   The handler option is the cycle's own, so asking allocates nothing. *)
let active_handler t =
  match t.cyc with
  | None -> None
  | Some c -> (
    match Cycle.phase c with
    | Cycle.Idle -> None
    | Cycle.Mark_tasks -> Cycle.handler_for_plane c Plane.MT
    | Cycle.Mark_root -> Cycle.handler_for_plane c Plane.MR)

(* Marking messages are tiny and bounded (§6) and ride a fast path: if
   they paid full data latency, a mutator expanding a deep structure
   could outrun the marking wavefront forever and the cycle would never
   terminate. [base] is the link's delay for the message's class. *)
let mark_base t = Int.max 1 (t.latency / 4)

let reduction_base t = Int.max 1 t.latency

let delay_of t ~rng ~(src : int) ~base pe =
  if pe = src then 1
  else if
    (* Seeded delivery jitter: occasionally a message takes longer,
       reordering arrivals — the interleaving adversary for the full
       machine. Deterministic for a given config seed. *)
    t.jitter > 0.0 && Rng.chance rng t.jitter
  then base + 1 + Rng.int rng (Int.max 1 t.latency)
  else base

(* The mark dispatch, for a PE's shard and for the controller alike: [m]
   is the metrics sink the drop is counted in, [emit] where the handler's
   spawned marks go. A mark whose epoch is not the handler's wave is
   debris from a superseded wave (a crash restart, or the previous
   cycle's tail still draining while this one marks): it is dropped
   here, at dispatch, so stale tasks never touch a plane or credit a
   counter.

   Marking shards exactly like reduction: everything a mark handler
   touches is either owned by the executing PE (the target vertex's
   plane state — marks are delivered to the vertex's home) or a per-PE
   counter slot (run/flood tallies), so the PEs' budgets commute. The
   handler table itself ([Cycle.handler_for_plane]) only changes
   outside the shards. *)
let execute_marking t m ~pe ~emit v par meta =
  match t.cyc with
  | None -> ()
  | Some c -> (
    match Cycle.handler_for_plane c (Task.meta_plane meta) with
    | None -> () (* stray task from a finished run: drop *)
    | Some h -> (
      let wave =
        match h with Cycle.Tree_run r -> r.Run.wave | Cycle.Flood_run f -> f.Flood.wave
      in
      if Task.meta_ep meta <> wave then
        m.Metrics.stale_marks_dropped <- m.Metrics.stale_marks_dropped + 1
      else
        match h with
        | Cycle.Tree_run run -> Marker.execute run ~pe ~emit v par meta
        | Cycle.Flood_run fl -> Flood.execute fl ~pe ~emit v par meta))

(* A send's message accounting, shared by both task classes and every
   sender: returns the delay drawn from the sender's jitter stream. A
   PE's scheduling randomness is its own splitmix stream derived from the
   config seed, so the jitter draws a PE sees depend only on its own send
   history — not on how the other PEs' sends interleave, and not on how
   the PEs are grouped into shards. The controller draws from
   stream -1 and never counts a send as remote. *)
let count_send t ctx ~base pe =
  (if pe <> ctx.cpe && ctx.cpe >= 0 then
     ctx.pm.Metrics.remote_messages <- ctx.pm.Metrics.remote_messages + 1);
  if pe = ctx.cpe then ctx.pm.Metrics.local_messages <- ctx.pm.Metrics.local_messages + 1;
  delay_of t ~rng:ctx.crng ~src:ctx.cpe ~base pe

(* The [Send] event of a counted send, for a sender with a recorder:
   callers build its kind only then. *)
let note_send t ctx r ~kind ~vid ~delay pe =
  Dgr_obs.Recorder.emit r
    (Dgr_obs.Event.Send
       { kind; pe; vid; arrival = t.now + delay; remote = pe <> ctx.cpe; lin = ctx.clin })

(* Execute a controller-addressed task: the final response of the
   computation, or a marking return to the dummy rootpar. *)
let execute_at_controller t task =
  match task with
  | Reduction _ -> Reducer.execute_task t.cctl.pred task
  | Marking m ->
    execute_marking t t.m ~pe:0 ~emit:t.cctl.cemit (Task.lane_v m) (Task.lane_par m)
      (Task.lane_meta m)

(* A mark, as lanes, staged into the sender's frame with no view built.
   Only a PE's return to the dummy rootpar is boxed, for the barrier
   replay — one per seed per wave. *)
let send_mark t ctx v par meta =
  let vid = Task.lanes_exec_vid v par meta in
  let pe = pe_of_vid t vid in
  if pe < 0 then begin
    if ctx.serial then execute_marking t ctx.pm ~pe:0 ~emit:ctx.cemit v par meta
    else Vec.push ctx.ctrl (Marking (Task.mark_of_lanes v par meta))
  end
  else
    let delay = count_send t ctx ~base:(mark_base t) pe in
    (match ctx.sub with
    | None -> ()
    | Some r -> note_send t ctx r ~kind:(Task.obs_kind_of_meta meta) ~vid ~delay pe);
    Network.send_mark t.net ~src:ctx.cpe ~arrival:(t.now + delay) ~pe v par meta

(* A reduction, as lanes ([Task.red_sink]), staged into the sender's
   frame with no view built; it records the graph's generation here.
   [ctx.serial] only chooses between running a controller-addressed
   task now and deferring it, as a view, to the barrier: one per
   computation. *)
let send_red t ctx head src dst key pay err =
  let pe = pe_of_vid t dst in
  if pe < 0 then begin
    if ctx.serial then Reducer.execute t.cctl.pred head src dst key pay err
    else Vec.push ctx.ctrl (Reduction (Task.reduction_of_lanes head src dst key pay err))
  end
  else
    let delay = count_send t ctx ~base:(reduction_base t) pe in
    (match ctx.sub with
    | None -> ()
    | Some r -> note_send t ctx r ~kind:(Task.obs_kind_of_head head) ~vid:dst ~delay pe);
    Network.stage_reduction t.net ~src:ctx.cpe ~lin:ctx.clin ~depth:ctx.cdepth
      ~gen:(Graph.releases t.g) ~arrival:(t.now + delay) ~pe head src dst key pay err

(* One send for every sender, of a view. *)
let send t ctx task =
  match task with
  | Marking m -> send_mark t ctx (Task.lane_v m) (Task.lane_par m) (Task.lane_meta m)
  | Reduction r ->
    send_red t ctx (Task.red_head r) (Task.red_src r) (Task.red_dst r) (Task.red_key r)
      (Task.red_pay r) (Task.red_err r)

(* Decompose a ticketed task's latency at the moment it executes: network
   transit (send → fault-free arrival), retransmit delay (arrival →
   actual delivery), queue wait (delivery → execution) and end-to-end
   (send → execution, counting the execution step itself). *)
let note_latency m l stamp ~now =
  let sent = Dgr_obs.Lineage.sent_of l stamp in
  let arrival = Dgr_obs.Lineage.arrival_of l stamp in
  let delivered = Dgr_obs.Lineage.delivered_of l stamp in
  Dgr_obs.Hist.add m.Metrics.lat_net (arrival - sent);
  Dgr_obs.Hist.add m.Metrics.lat_retx (delivered - arrival);
  Dgr_obs.Hist.add m.Metrics.lat_queue (now - delivered);
  Dgr_obs.Hist.add m.Metrics.lat_e2e (now - sent + 1)

(* Execute one mark, as lanes, on its PE's shard. Marks are never
   ticketed, so the context's lineage stays at its idle -1/0 (only
   [pe_execute] moves it, and resets it after), and its spawns stage
   into the PE's own frames; returns to the dummy rootpar replay at the
   barrier. *)
let pe_execute_mark t ctx v par meta =
  (match ctx.sub with
  | None -> ()
  | Some r ->
    Dgr_obs.Recorder.emit r
      (Dgr_obs.Event.Execute
         {
           kind = Task.obs_kind_of_meta meta;
           pe = ctx.cpe;
           vid = Task.lanes_exec_vid v par meta;
           lin = ctx.clin;
         }));
  ctx.pm.Metrics.marking_executed <- ctx.pm.Metrics.marking_executed + 1;
  execute_marking t ctx.pm ~pe:ctx.cpe ~emit:ctx.cemit v par meta

(* Execute one task on its PE's shard. Latency lands in the context's
   private sink (histogram absorption is associative, so the merged
   totals match any execution order); ticket closes are deferred to the
   barrier, where they run in ascending PE order — a fixed,
   shard-count-free order. Between barriers the ticket store is only
   read, so every PE reads the tickets as they stood at the top of the
   step. Marks never come here:
   [Pool.drain_lanes] hands them to [pe_execute_mark] as lanes. *)
let pe_execute t ctx stamp head src dst key pay err =
  if stamp >= 0 then begin
    note_latency ctx.pm t.lin stamp ~now:t.now;
    ctx.clin <- Dgr_obs.Lineage.lin_of t.lin stamp;
    ctx.cdepth <- Dgr_obs.Lineage.depth_of t.lin stamp + 1
  end
  else begin
    ctx.clin <- -1;
    ctx.cdepth <- 0
  end;
  (match ctx.sub with
  | None -> ()
  | Some rc ->
    Dgr_obs.Recorder.emit rc
      (Dgr_obs.Event.Execute
         { kind = Task.obs_kind_of_head head; pe = ctx.cpe; vid = dst; lin = ctx.clin }));
  ctx.pm.Metrics.reduction_executed <- ctx.pm.Metrics.reduction_executed + 1;
  Reducer.execute ctx.pred head src dst key pay err;
  if stamp >= 0 then Vec.push ctx.cdone stamp;
  ctx.clin <- -1;
  ctx.cdepth <- 0

(* A stale task dies unexecuted (Property 6), counted and traced. *)
let note_purge m sub ~pe =
  m.Metrics.tasks_purged <- m.Metrics.tasks_purged + 1;
  match sub with
  | None -> ()
  | Some r -> Dgr_obs.Recorder.emit r (Dgr_obs.Event.Purge { pe; count = 1 })

(* A drain's stale pop; the ticket is dropped at the barrier. *)
let pe_drop ctx stamp =
  note_purge ctx.pm ctx.sub ~pe:ctx.cpe;
  if stamp >= 0 then Vec.push ctx.cdrop stamp

(* The same drop outside the shards, for [pe]'s pool. *)
let serial_drop t ~pe stamp =
  note_purge t.m t.recorder ~pe;
  if stamp >= 0 then Dgr_obs.Lineage.drop t.lin stamp

let live t gen task =
  match task with Reduction r -> not (Task.stale t.g gen r) | Marking _ -> true

(* Delivery's push of the row at lane [i] of [a] ([Network.deliver_serial]):
   a task that went stale in flight dies here. *)
let deliver_to_pool t pe a i err =
  let gen = a.(i + 5) and stamp = a.(i + 6) in
  if Task.stale_lanes t.g gen a.(i) a.(i + 1) then serial_drop t ~pe stamp
  else begin
    Pool.push_row t.pools.(pe) ~stamp ~gen a.(i + 2) a.(i) a.(i + 1) a.(i + 3) a.(i + 4) err;
    Bitset.add t.busy pe
  end

(* The step's visit list: the busy PEs, ascending, each one PE visit.
   Called once per step, after delivery and the stall dice, the last
   points where a PE joins the set; it stays valid to bookkeeping. *)
let gather t =
  let n = Bitset.fill t.busy t.visit in
  t.n_visit <- n;
  t.visits <- t.visits + n

(* Each PE's extra per-step budget for marking tasks, which are much
   lighter than reduction tasks (§6). *)
let marking_per_step = 8

(* Shard [d] owns the PE range [shard_lo t d, shard_lo t (d + 1)). A
   bound, not a pair: the non-flambda compiler would box a pair on every
   call of the step loop. *)
let shard_lo t d = d * t.num_pes / t.domains

(* A crashed PE executes nothing until its downtime elapses, a stalled
   one until its stall ends; both read serial state the crash tick and
   [roll_stalls] wrote before the shards started. *)
let executes t pe = t.down_since.(pe) < 0 && t.now >= t.stall_until.(pe)

(* Shard [d] runs the visit list's entries from [k0] on that fall in
   its PE range, and returns where the next shard's start: an idle PE
   has no mark to take and nothing to drain, so it is not visited. Each
   busy PE first takes the marks delivery parked for it, down or stalled
   or not (its pool receives them either way). Then every executing PE
   drains its marking budget, then — unless a restructure pause leaves
   only marking running — its reduction budget, which lends idle slots
   to marking ([Pool.drain_lanes]). A step's PEs are data-disjoint, so
   this order moves no byte, and each loop is timed once per shard, not
   once per PE; a shard with no busy PE reads no clock. *)
let run_shard t d k0 =
  let hi = shard_lo t (d + 1) and v = t.visit in
  let k1 = ref k0 in
  while !k1 < t.n_visit && v.(!k1) < hi do
    incr k1
  done;
  let k1 = !k1 - 1 in
  if k1 >= k0 then begin
    for k = k0 to k1 do
      let pe = v.(k) in
      Network.take_mark_lanes t.net ~pe (Pool.marks t.pools.(pe))
    done;
    let c0 = read t in
    for k = k0 to k1 do
      let pe = v.(k) in
      if executes t pe then begin
        t.exec_pe <- pe;
        Pool.drain_marking t.pools.(pe) ~budget:marking_per_step t.ctxs.(pe).cmark
      end
    done;
    let c1 = read t in
    if not t.mark_only then
      for k = k0 to k1 do
        let pe = v.(k) in
        if executes t pe then begin
          t.exec_pe <- pe;
          let ctx = t.ctxs.(pe) in
          Pool.drain_lanes t.pools.(pe) ~budget:t.tasks_per_step ~red:ctx.cexec ~dead:ctx.cdead
            ~mark:ctx.cmark
        end
      done;
    let c2 = read t in
    t.exec_pe <- -1;
    let s = t.shard_ph in
    s.(2 * d) <- s.(2 * d) + (c1 - c0);
    s.((2 * d) + 1) <- s.((2 * d) + 1) + (c2 - c1)
  end;
  k1 + 1

(* A rare, large span — restructure's home passes, a stop-the-world
   mark — would be noise in a 1-in-[Profile.stride] sample: it is
   clocked every time it runs, from [r0] to now, and summed exactly into
   slot [k]. On a clocked step it is cut out of the running phase's
   sample (the phase's reading moves past it), so the weighted sample
   never counts it again. *)
let exact_span t k r0 =
  let span = clock () - r0 and ns = t.ph_ns in
  ns.(k) <- ns.(k) + span;
  if t.clocked then ns.(k_at) <- ns.(k_at) + span

(* Restructure's per-home passes: run [f] over every home PE in order,
   timed exactly. *)
let each_home_run t f =
  let r0 = clock () in
  for pe = 0 to t.num_pes - 1 do
    f pe
  done;
  exact_span t k_restr r0

(* Restructure's pool pass, after its releases: every busy PE's pool
   (the others are empty) drops the entries the releases made stale and
   re-sorts the rest by the priorities just persisted. Returns how many
   entries moved. *)
let reprioritize t =
  let moved = ref 0 in
  let pe = ref (Bitset.next t.busy 0) in
  while !pe >= 0 do
    let p = !pe in
    let dead stamp _ _ _ _ _ _ = serial_drop t ~pe:p stamp in
    moved := !moved + Pool.reprioritize ~dead t.pools.(p);
    pe := Bitset.next t.busy (p + 1)
  done;
  !moved

let create ?recorder ?(config = Config.default) g templates =
  (match config.Config.gc.Config.heap_size with
  | Some c -> Graph.set_capacity g (Some (Int.max c (Graph.vertex_count g)))
  | None -> Graph.set_capacity g None);
  let num_pes = Config.num_pes config in
  (* Hand the graph to the PEs: per-home free lists and striped fresh
     vids, so a shard's allocation never shares a structure across PEs. *)
  if not (Graph.partitioned g) then Graph.partition g ~pes:num_pes;
  let mut = Mutator.create ?recorder ~spawn:(fun _ _ _ -> ()) g in
  let speculate_if = Config.speculate_if config in
  (* The reserve is per-home now that parking consults the executing
     vertex's partition ({!Graph.headroom_for}): a quarter of the heap
     globally, i.e. a quarter of each home's share. *)
  let speculation_reserve =
    match Config.heap_size config with Some c -> c / 4 / Int.max 1 num_pes | None -> 0
  in
  let rc =
    match Config.gc config with
    | Refcount -> Some (Refcount.create g)
    | No_gc | Concurrent _ | Stop_the_world _ -> None
  in
  let flt =
    let faults = Config.faults config in
    if Faults.active faults then Some (Faults.create faults) else None
  in
  let seed = Config.seed config in
  (* One ticket store for the whole machine. Tickets are only opened
     outside the shards (by a serial send, or by [Network.seal] for the
     shards' sends), so their slot order is a pure function of machine
     state, independent of [domains]. *)
  let lineage = Dgr_obs.Lineage.create () in
  let pools =
    Array.init num_pes (fun pe -> Pool.create ~lineage ~pe (Config.pool_policy config) g)
  in
  (* One constructor for every context, the controller's ([pe = -1])
     included. A context's reducer sends through the engine, which holds
     the controller's context and so is built after it: [self] is set as
     soon as [t] exists, before anything can send. *)
  let self = ref None in
  let make_ctx ~pe ~pm ~sub =
    let cell = ref None in
    let pred =
      Reducer.create ~speculate_if ~speculation_reserve ?recorder:sub ~graph:g ~mut ~templates
        ~send:(fun head s d key pay err ->
          match (!self, !cell) with
          | Some t, Some ctx -> send_red t ctx head s d key pay err
          | _ -> assert false)
        ()
    in
    let ctx =
      {
        cpe = pe;
        crng = Rng.stream ~seed pe;
        serial = pe < 0;
        ctrl = Vec.create ();
        pred;
        pm;
        sub;
        clin = -1;
        cdepth = 0;
        cdone = Vec.create ();
        cdrop = Vec.create ();
        cexec = (fun _ _ _ _ _ _ _ -> ());
        cdead = (fun _ _ _ _ _ _ _ -> ());
        cmark = (fun _ _ _ -> ());
        cemit = (fun _ _ _ -> ());
        ccoop = Vec.create ();
        cinc = Vec.create ();
        cdec = Vec.create ();
      }
    in
    cell := Some ctx;
    ctx
  in
  let cctl = make_ctx ~pe:(-1) ~pm:(Metrics.create ()) ~sub:recorder in
  let domains = Config.domains config in
  let t =
    {
      cfg = config;
      num_pes;
      latency = Config.latency config;
      tasks_per_step = Config.tasks_per_step config;
      gc_work_factor = Config.gc_work_factor config;
      jitter = Config.jitter config;
      gc_mode = Config.gc config;
      domains;
      g;
      pools;
      busy = Bitset.create num_pes;
      visit = Array.make num_pes 0;
      n_visit = 0;
      depths = Array.make num_pes 0;
      visits = 0;
      net = Network.create ?recorder ~lineage ?faults:flt ~batch:(Config.batch config) ();
      mut;
      cctl;
      cyc = None;
      rc;
      recorder;
      m = cctl.pm;
      executed_by = Array.make num_pes 0;
      lin = lineage;
      prof = Profile.create ();
      ph_ns = Array.make (k_at + 1) 0;
      ph_mw = Array.make (k_at + 1) 0.0;
      shard_ph = Array.make (2 * domains) 0;
      clocked = false;
      now = 0;
      paused_until = 0;
      next_cycle_at = 0;
      next_stw_at = (match Config.gc config with Stop_the_world { every } -> every | _ -> 0);
      stw_verdicts = Restructure.verdicts ();
      flt;
      stall_until = Array.make (Int.max 1 num_pes) 0;
      ckpts = [||];
      down_until = Array.make (Int.max 1 num_pes) 0;
      down_since = Array.make (Int.max 1 num_pes) (-1);
      crash_down = Array.make (Int.max 1 num_pes) 0;
      survivors = Array.make (Int.max 1 num_pes) 0;
      n_survivors = 0;
      crash_used = (Config.faults config).Faults.crash > 0.0;
      ctxs = [||];
      exec_pe = -1;
      wd_mark_last = 0;
      wd_mark_since = 0;
      wd_mark_fired = false;
      wd_exec_last = 0;
      wd_exec_since = 0;
      wd_exec_fired = false;
      wd_retx_last = 0;
      wd_retx_at = 64;
      push_due = (fun _ _ _ _ -> ());
      mark_only = false;
      coop_sink = None;
    }
  in
  self := Some t;
  Network.reserve t.net ~pes:num_pes;
  t.ctxs <-
    Array.init num_pes (fun pe ->
        let sub =
          match recorder with
          | None -> None
          | Some _ ->
            (* Sized for one step's events of one PE; [drain_into]
               raises if it ever wraps, so overflow is loud, not silent. *)
            Some (Dgr_obs.Recorder.create ~capacity:(1 lsl 14) ~sample_every:0 ~num_pes ())
        in
        make_ctx ~pe ~pm:(Metrics.create ()) ~sub);
  Array.iter
    (fun ctx ->
      ctx.cexec <- (fun stamp head s d key pay err -> pe_execute t ctx stamp head s d key pay err);
      ctx.cdead <- (fun stamp _ _ _ _ _ _ -> pe_drop ctx stamp);
      ctx.cmark <- (fun v par meta -> pe_execute_mark t ctx v par meta);
      ctx.cemit <- (fun v par meta -> send_mark t ctx v par meta))
    t.ctxs;
  cctl.cemit <- (fun v par meta -> send_mark t cctl v par meta);
  t.push_due <- (fun pe a i err -> deliver_to_pool t pe a i err);
  Network.set_on_park t.net (fun pe -> Bitset.add t.busy pe);
  mut.Mutator.spawn <- cctl.cemit;
  mut.Mutator.coop_pe <- (fun () -> Int.max 0 cctl.cpe);
  t.coop_sink <-
    Some
      (fun ev -> Vec.push t.ctxs.(Int.max 0 t.exec_pe).ccoop ev);
  (match rc with
  | Some rc ->
    (* A PE's shard logs its count changes in its context; the barrier
       applies them ([apply_rc]), so counts — and frees — only ever
       change serially. Serial mutations (controller replay, injection,
       tests between steps) apply at once. *)
    let log v a c =
      Vec.push v a;
      Vec.push v c
    in
    mut.Mutator.on_connect <-
      (fun a c ->
        let pe = t.exec_pe in
        if pe >= 0 then log t.ctxs.(pe).cinc a c else Refcount.on_connect rc a c);
    mut.Mutator.on_disconnect <-
      (fun a c ->
        let pe = t.exec_pe in
        if pe >= 0 then log t.ctxs.(pe).cdec a c else Refcount.on_disconnect rc a c);
    if Graph.has_root g then Refcount.pin rc (Graph.root g)
  | None -> ());
  (match Config.gc config with
  | Concurrent { deadlock_every; idle_gap } ->
    (* taskroot_i from per-PE local knowledge: each PE enumerates the
       endpoint vids of the pending reduction tasks it can see — its own
       pool, parked expansions homed on it, and the in-flight frames
       bound for it. The transport's frames are bucketed by destination
       in one sweep on PE 0's turn (the cycle visits PEs in ascending
       order) and served per PE after; no global snapshot or set is
       assembled — cross-PE duplicates die on the vertex seed stamp. A
       stale task is skipped: it would seed its slot's new occupant. *)
    let net_scratch = Array.init num_pes (fun _ -> Vec.create ()) in
    let iter_pe_endpoints pe f =
      if pe = 0 then begin
        Array.iter Vec.clear net_scratch;
        Network.iter_in_flight_rows t.net (fun dst gen s d ->
            if dst >= 0 && dst < num_pes && not (Task.stale_lanes g gen s d) then begin
              if s >= 0 then Vec.push net_scratch.(dst) s;
              if d >= 0 then Vec.push net_scratch.(dst) d
            end)
      end;
      Pool.iter_endpoints t.pools.(pe) f;
      Vec.iter f net_scratch.(pe);
      Reducer.iter_parked_rows t.cctl.pred (fun gen _ s d _ ->
          let home = pe_of_vid t d in
          if (home = pe || (home < 0 && pe = 0)) && not (Task.stale_lanes g gen s d) then begin
            if s >= 0 then f s;
            if d >= 0 then f d
          end)
    in
    let env =
      {
        Cycle.spawn_mark = cctl.cemit;
        pes = num_pes;
        iter_pe_endpoints;
        reprioritize = (fun () -> reprioritize t);
        each_home = each_home_run t;
        now = (fun () -> t.now);
      }
    in
    t.cyc <-
      Some
        (Cycle.create ~deadlock_every ~scheme:(Config.marking config)
           ~detection_window:(2 * Int.max 1 (Config.latency config))
           ?recorder g mut env);
    (* Termination credits (flood scheme): every physical transmission
       samples the sending PE's counters via [credit_of]; arriving
       credits — piggybacked or standalone heartbeats — flow into the
       cycle's detector, which discards wrong-epoch noise itself. *)
    let credit f pe =
      match active_handler t with
      | Some (Cycle.Flood_run fl) when pe >= 0 && pe < num_pes -> f fl pe
      | _ -> -1
    in
    Network.set_credit_of t.net
      ~epoch:(credit (fun fl _ -> fl.Flood.wave))
      ~sent:(credit (fun fl pe -> Flood.sent_on fl ~pe))
      ~executed:(credit (fun fl pe -> Flood.executed_on fl ~pe));
    Network.set_on_credit t.net (fun ~pe ~epoch ~sent ~executed ->
        match t.cyc with
        | Some c -> Cycle.learn_credit c ~pe ~epoch ~sent ~executed
        | None -> ());
    t.next_cycle_at <- idle_gap
  | No_gc | Stop_the_world _ | Refcount -> ());
  t

let config t = t.cfg

let recorder t = t.recorder

let graph t = t.g

let reducer t = t.cctl.pred

let mutator t = t.mut

let cycle t = t.cyc

let refcount t = t.rc

let metrics t = t.m

let lineage t = t.lin

let executed_per_pe t = Array.copy t.executed_by

let pe_visits t = t.visits

let busy_pes t = Bitset.elements t.busy

(* The whole-run estimate: each clocked step stands for [Profile.stride]
   steps, and the exact spans (restructure, stop-the-world marks) add
   their time to GC and to the total. The weight is fixed, so the
   estimate only ever grows, and in integer ns the step's phases add up
   to its total exactly. *)
let profile t =
  let w k = Profile.stride * t.ph_ns.(k) and restr = t.ph_ns.(k_restr) in
  let merge_w = w k_drain + w k_absorb + w k_close + w k_seal + w k_replay in
  let gc_w = w k_gc + restr + t.ph_ns.(k_stw) in
  let total = w k_transport + w k_execute + merge_w + gc_w + w k_book in
  let ns k = float_of_int (w k) and mw k = t.ph_mw.(k) in
  let shard k d = float_of_int (Profile.stride * t.shard_ph.((2 * d) + k)) in
  let budgets k = Array.fold_left ( +. ) 0.0 (Array.init t.domains (shard k)) in
  {
    t.prof with
    total_ns = float_of_int total;
    transport_ns = ns k_transport;
    execute_ns = ns k_execute;
    merge_ns = float_of_int merge_w;
    drain_ns = ns k_drain;
    absorb_ns = ns k_absorb;
    close_ns = ns k_close;
    flush_ns = ns k_seal;
    replay_ns = ns k_replay;
    gc_ns = float_of_int gc_w;
    book_ns = ns k_book;
    restr_ns = float_of_int restr;
    mark_ns = budgets 0;
    red_ns = budgets 1;
    total_mw = mw k_total;
    transport_mw = mw k_transport;
    execute_mw = mw k_execute;
    merge_mw = mw k_drain +. mw k_absorb +. mw k_close +. mw k_seal +. mw k_replay;
    gc_mw = mw k_gc;
    book_mw = mw k_book;
    shard_ns = Array.init t.domains (fun d -> shard 0 d +. shard 1 d);
  }

let faults t = t.flt

let now t = t.now

let enable_ownership_checks t =
  let executing_pe () = if t.exec_pe >= 0 then t.exec_pe else t.cctl.cpe in
  t.mut.Mutator.guard <- (fun v -> Invariants.ownership_guard t.g ~executing_pe v)

(* Injection mints a fresh lineage id: every task the machine executes on
   behalf of this one — transitively, through every send — carries it. *)
let inject t task =
  t.cctl.clin <- Dgr_obs.Lineage.new_lineage t.lin ~now:t.now;
  send t t.cctl task;
  t.cctl.clin <- -1

let inject_root_demand t = inject t (Reducer.initial_task t.cctl.pred)

let pending_tasks t =
  let acc = ref [] in
  let add gen task = if live t gen task then acc := task :: !acc in
  Reducer.iter_parked t.cctl.pred add;
  Network.iter_in_flight t.net add;
  Array.iter (fun pool -> List.iter (add Task.no_gen) (Pool.tasks pool)) t.pools;
  List.rev !acc

let network t = t.net

let pool t pe = t.pools.(pe)

let pending_reduction_tasks t =
  List.filter_map (function Reduction r -> Some r | Marking _ -> None) (pending_tasks t)

(* The pools outside the busy set are empty. *)
let rec pools_empty t pe =
  pe < 0 || (Pool.is_empty t.pools.(pe) && pools_empty t (Bitset.next t.busy (pe + 1)))

let quiescent t =
  pools_empty t (Bitset.next t.busy 0)
  && Network.size t.net = 0
  && Reducer.parked_count t.cctl.pred = 0
  && match t.cyc with None -> true | Some c -> Cycle.phase c = Cycle.Idle

(* GC work (tracing a vertex, sweeping a slot) is much lighter than
   executing a task; [gc_work_factor] work units fit in one task slot. *)
let pause t ~reason work =
  let per_step = throughput t * t.gc_work_factor in
  let steps = (work + per_step - 1) / per_step in
  Metrics.record_pause t.m steps;
  obs t (Dgr_obs.Event.Pause { steps; reason });
  t.paused_until <- Int.max t.paused_until (t.now + steps)

(* ⊥-recovery (the paper's footnote 5): a deadlocked region never harms
   anyone, but in a multi-user machine its requesters should not wait
   forever. Rewrite each deadlocked operator vertex to an error value and
   answer its requesters — the error then propagates through strict
   operators like any other value. Vertices that already hold values are
   left alone (they are in the formal DL set only because their consumer
   is stuck). *)
let recover_deadlocks t report =
  List.iter
    (fun v ->
      let vx = Graph.vertex t.g v in
      if (not (Vertex.free vx)) && not (Label.is_whnf (Vertex.label vx)) then begin
        Vertex.set_label vx @@ Label.Err "deadlock";
        t.m.Metrics.deadlocks_recovered <- t.m.Metrics.deadlocks_recovered + 1;
        let entries = (Vertex.requested vx) in
        List.iter
          (fun (e : Vertex.request_entry) ->
            send t t.cctl
              (Reduction
                 (Respond
                    {
                      src = v;
                      dst = e.Vertex.who;
                      value = Label.V_err "deadlock";
                      key = e.Vertex.key;
                      demand = e.Vertex.demand;
                    })))
          entries;
        Vertex.clear_requesters vx;
        List.iter (fun c -> Mutator.delete_reference t.mut ~a:v ~b:c) (Vertex.args vx);
        Vertex.clear_reduction_state vx
      end)
    report.Restructure.deadlocked

(* Memory pressure: collect early when the allocatable reserve runs low
   (an eighth of the heap, at least 64 slots). *)
let under_pressure t =
  match Graph.capacity t.g with
  | None -> false
  | Some c -> Graph.headroom t.g < Int.max 64 (c / 8)

(* Re-inject allocation-stalled expansions once the free list has a
   chance of supplying them. A re-injection, not a message: the task was
   sent (and accounted) once already, so it goes straight to the network
   with no [Send] event and no jitter draw — the parked lanes themselves,
   copied into a frame from the controller to its destination's PE, in
   park order, with the generation it parked in. A task whose endpoint
   was released while it waited is stale and dies here instead. *)
let unpark t =
  let parked = t.cctl.pred.Reducer.parked in
  let a = Vec.unsafe_data parked and w = Reducer.park_lanes in
  for k = 0 to (Vec.length parked / w) - 1 do
    let i = w * k in
    let head = a.(i) and s = a.(i + 1) and d = a.(i + 2) and key = a.(i + 3) in
    let gen = a.(i + 4) in
    let pe = pe_of_vid t d in
    if Task.stale_lanes t.g gen s d then serial_drop t ~pe (-1)
    else if pe >= 0 then
      Network.stage_reduction t.net ~src:(-1) ~lin:(-1) ~depth:0 ~gen ~arrival:(t.now + 1) ~pe
        head s d key 0 ""
  done;
  Vec.clear parked

let gc_control t =
  match t.gc_mode with
  | No_gc | Refcount ->
    (* Re-inject stalled expansions only when the free list has actually
       recovered; under persistent pressure they stay parked (and a
       collector-less machine simply quiesces). *)
    if t.now land 63 = 0 && not (under_pressure t) then unpark t
  | Stop_the_world { every } ->
    (* Memory pressure pulls the schedule in, but never below a quarter
       of the period — a full collection per step would thrash. *)
    if
      t.now >= t.next_stw_at
      || (under_pressure t && t.now >= t.next_stw_at - (3 * every / 4))
    then begin
      if t.now < t.next_stw_at then obs t (Dgr_obs.Event.Heap_pressure { headroom = Graph.headroom t.g });
      (* §4's conventional collector: the paper's M_R, run to completion
         as mark1 (no task priorities) while the machine is halted, then
         restructure's releases. The pause charges the survivors traced
         plus the table swept. *)
      let r0 = clock () in
      if Graph.has_root t.g then
        ignore (Dgr_core.Sync_engine.mark t.g Run.Basic ~seeds:[ Graph.root t.g ] : Run.t);
      exact_span t k_stw r0;
      ignore
        (Restructure.run ~graph:t.g ~deadlock_checked:false
           ~reprioritize:(fun () -> reprioritize t)
           ~each_home:(each_home_run t) ~verdicts:t.stw_verdicts ()
          : Restructure.report);
      t.m.Metrics.stw_collections <- t.m.Metrics.stw_collections + 1;
      pause t ~reason:Dgr_obs.Event.Stw_pause (Graph.live_count t.g + Graph.vertex_count t.g);
      t.next_stw_at <- Int.max t.paused_until t.now + every;
      unpark t
    end
    else if t.now land 63 = 0 && not (under_pressure t) then unpark t
  | Concurrent { idle_gap; _ } -> (
    match t.cyc with
    | None -> ()
    | Some c -> (
      (match Cycle.poll c with
      | Some report ->
        t.m.Metrics.cycles_completed <- t.m.Metrics.cycles_completed + 1;
        (* Restructure is the concurrent scheme's only stop: a sweep over
           the live vertices plus the slots being reclaimed. *)
        pause t ~reason:Dgr_obs.Event.Restructure_pause
          (Graph.live_count t.g + report.Restructure.garbage);
        if Config.recover_deadlock t.cfg then recover_deadlocks t report;
        (* Decentralized initiation: the next cycle's mark wave may open
           while this cycle's restructure pause is still draining — the
           wave is epoch-tagged and the mutator is the only thing the
           pause actually stops. *)
        t.next_cycle_at <- t.now + idle_gap;
        unpark t
      | None -> if t.now land 63 = 0 && not (under_pressure t) then unpark t);
      if Cycle.phase c = Cycle.Idle && (t.now >= t.next_cycle_at || under_pressure t) then begin
        if t.now < t.next_cycle_at then
          obs t (Dgr_obs.Event.Heap_pressure { headroom = Graph.headroom t.g });
        Cycle.start_cycle c
      end))

(* Transient PE stalls (crash-restart with memory preserved): a stalled
   PE skips its execution budget; its pool, heap and in-flight messages
   survive. The marking plane must tolerate this — a stalled PE delays
   but never loses its share of the cycle. The dice roll serially, before
   the shards run, in ascending PE order on the fault plane's own stall
   stream, and a down PE rolls none — so the stream, the counters and
   each [Stall] event (emitted into the PE's own sub-recorder, where the
   merged trace puts it between its neighbours' executions) are the same
   at every domain count. *)
let roll_stalls t f =
  for pe = 0 to t.num_pes - 1 do
    if t.down_since.(pe) < 0 then begin
      if t.now < t.stall_until.(pe) then f.Faults.stall_steps <- f.Faults.stall_steps + 1
      else if Faults.stall_begins f ~pe then begin
        let steps = Faults.stall_length f in
        f.Faults.stalls <- f.Faults.stalls + 1;
        f.Faults.stall_steps <- f.Faults.stall_steps + 1;
        t.stall_until.(pe) <- t.now + steps;
        (* Its [Stall] event waits in its context: joining the busy set
           puts the PE on this step's visit list, which the merge
           drains. *)
        Bitset.add t.busy pe;
        match t.ctxs.(pe).sub with
        | Some r -> Dgr_obs.Recorder.emit r (Dgr_obs.Event.Stall { pe; steps })
        | None -> ()
      end
    end
  done

(* An engine holds nothing but heap memory. *)
let dispose (_ : t) = ()

(* Apply a context's logged (parent, child) pairs, in log order. *)
let drain_pairs v f =
  let d = Vec.unsafe_data v in
  let i = ref 0 in
  while !i < Vec.length v do
    f d.(!i) d.(!i + 1);
    i := !i + 2
  done;
  Vec.clear v

(* Refcounting at the barrier: every logged increment in ascending PE
   order, then every decrement. Increments go first so a decrement from
   one PE cannot free a vertex another PE connected in the same step.
   Frees — and the slots they hand back to the free lists — happen only
   here; each raises its slot's generation, so a task still addressing a
   freed vertex is stale and dies where it is next handled. *)
let apply_rc t rc =
  for k = 0 to t.n_visit - 1 do
    drain_pairs t.ctxs.(t.visit.(k)).cinc (Refcount.on_connect rc)
  done;
  for k = 0 to t.n_visit - 1 do
    drain_pairs t.ctxs.(t.visit.(k)).cdec (Refcount.on_disconnect rc)
  done

(* The step barrier: merge every busy PE's context back into the shared
   machine, in ascending PE order throughout, so the merged state is a
   pure function of the per-PE buffers — independent of domain count and
   scheduling. Only a PE that took a turn this step can hold anything to
   merge, and the visit list is exactly those PEs, so every pass walks
   the list and the merge costs the busy PEs, not the machine size.
   Order within the merge: events first (so traces read
   execute-then-control), then counters, then the seal of the shards'
   frames (PE-ordered numbering reproduces what a serial PE-ordered
   execution would have enqueued), then the logged refcount changes,
   then the deferred cooperation events (whose mark spawns are charged
   to the deferring PE, draw its jitter stream and join the frames its
   shard opened), then the deferred controller tasks (whose own sends go
   straight to the network, after every shard's send — again a fixed
   order). *)
let merge_shards t =
  Mutator.set_defer t.mut None;
  let ctxs = t.ctxs and v = t.visit and n = t.n_visit in
  (match t.recorder with
  | None -> ()
  | Some r ->
    for k = 0 to n - 1 do
      match ctxs.(v.(k)).sub with
      | Some s -> Dgr_obs.Recorder.drain_into ~src:s ~dst:r
      | None -> ()
    done);
  lap t k_drain;
  for k = 0 to n - 1 do
    let pe = v.(k) in
    let ctx = ctxs.(pe) in
    Reducer.absorb t.cctl.pred ctx.pred;
    t.executed_by.(pe) <-
      t.executed_by.(pe) + ctx.pm.Metrics.reduction_executed + ctx.pm.Metrics.marking_executed;
    Metrics.absorb t.m ctx.pm
  done;
  lap t k_absorb;
  (* Close the executed tasks' tickets before the seal: the freed slots
     are recycled by the seal's opens, in ascending PE order both times,
     so slot allocation stays a pure function of the step's buffers. *)
  for k = 0 to n - 1 do
    let d = ctxs.(v.(k)).cdone and x = ctxs.(v.(k)).cdrop in
    Dgr_obs.Lineage.close_many t.lin (Vec.unsafe_data d) ~len:(Vec.length d) ~now:t.now;
    Vec.clear d;
    for k = 0 to Vec.length x - 1 do
      Dgr_obs.Lineage.drop t.lin (Vec.get x k)
    done;
    Vec.clear x
  done;
  lap t k_close;
  Network.seal t.net;
  lap t k_seal;
  (match t.rc with Some rc -> apply_rc t rc | None -> ());
  let cpe = t.cctl.cpe and crng = t.cctl.crng in
  for k = 0 to n - 1 do
    let ctx = ctxs.(v.(k)) in
    let evs = ctx.ccoop in
    if Vec.length evs > 0 then begin
      t.cctl.cpe <- ctx.cpe;
      t.cctl.crng <- ctx.crng;
      for k = 0 to Vec.length evs - 1 do
        Mutator.replay t.mut (Vec.get evs k)
      done;
      Vec.clear evs
    end
  done;
  t.cctl.cpe <- cpe;
  t.cctl.crng <- crng;
  for k = 0 to n - 1 do
    let q = ctxs.(v.(k)).ctrl in
    for k = 0 to Vec.length q - 1 do
      execute_at_controller t (Vec.get q k)
    done;
    Vec.clear q
  done;
  lap t k_replay

(* Health watchdogs. Window-based: each monitor re-arms on any progress
   (or while the machine is legitimately paused) and fires at most once
   per stall episode, so a long outage reads as one event, not a siren.
   All inputs are deterministic machine state — the events land in traces
   and must be identical at every domain count. *)
let wd_window t = Int.max 32 (8 * t.latency)

let health_check t ~pooled =
  let now = t.now in
  let paused = now < t.paused_until in
  (* Mark wave: a cycle is running but no marking task has executed for a
     full window — the wave is stuck behind a stalled PE or lost marks. *)
  let cycle_active =
    match t.cyc with Some c -> Cycle.phase c <> Cycle.Idle | None -> false
  in
  if cycle_active && not paused then begin
    if t.m.Metrics.marking_executed > t.wd_mark_last then begin
      t.wd_mark_last <- t.m.Metrics.marking_executed;
      t.wd_mark_since <- now;
      t.wd_mark_fired <- false
    end
    else if (not t.wd_mark_fired) && now - t.wd_mark_since >= wd_window t then begin
      t.wd_mark_fired <- true;
      t.m.Metrics.health_mark_stalls <- t.m.Metrics.health_mark_stalls + 1;
      obs t
        (Dgr_obs.Event.Health
           { health = Dgr_obs.Event.Mark_wave_stall; value = now - t.wd_mark_since })
    end
  end
  else begin
    t.wd_mark_last <- t.m.Metrics.marking_executed;
    t.wd_mark_since <- now;
    t.wd_mark_fired <- false
  end;
  (* Quiescence: work is waiting (pooled or in flight) but nothing has
     executed for several windows — livelock, or frames stuck behind
     repeated losses. The window is 4× the mark watchdog's so a healthy
     exponential-backoff retransmit never trips it. *)
  let executed = t.m.Metrics.reduction_executed + t.m.Metrics.marking_executed in
  let work_waiting = pooled || Network.size t.net > 0 in
  if
    executed > t.wd_exec_last || paused || (not work_waiting)
    || Option.is_some t.m.Metrics.completion_step
  then begin
    t.wd_exec_last <- executed;
    t.wd_exec_since <- now;
    t.wd_exec_fired <- false
  end
  else if (not t.wd_exec_fired) && now - t.wd_exec_since >= 4 * wd_window t then begin
    t.wd_exec_fired <- true;
    t.m.Metrics.health_quiescence_stalls <- t.m.Metrics.health_quiescence_stalls + 1;
    obs t
      (Dgr_obs.Event.Health
         { health = Dgr_obs.Event.Quiescence_stall; value = now - t.wd_exec_since })
  end;
  (* Retransmit storm: the windowed retransmit rate exceeds ~4 per PE per
     64 steps — the delivery timers are thrashing, not recovering. *)
  if now >= t.wd_retx_at then begin
    let delta = t.m.Metrics.retransmits - t.wd_retx_last in
    if delta >= 4 * t.num_pes then begin
      t.m.Metrics.health_retx_storms <- t.m.Metrics.health_retx_storms + 1;
      obs t
        (Dgr_obs.Event.Health
           { health = Dgr_obs.Event.Retransmit_storm; value = delta })
    end;
    t.wd_retx_last <- t.m.Metrics.retransmits;
    t.wd_retx_at <- now + 64
  end

(* ---- PE crashes (fail-stop with checkpointed re-homing) ---------------
   A crash loses a PE's volatile state wholesale: its task pool and
   every frame in flight on its links (both directions, including
   batched frames). Its striped graph segment comes back as it stood at
   the top of the step. Only a step on which two or more PEs crash syncs
   the checkpoints, right before its first crash, when nothing in the
   step has written the graph yet, and restores each crashed PE's
   segment from that copy, so no acknowledged state ever rolls back. A
   lone crash needs neither: nothing between that sync and its restore
   would write the graph (neither [Pool.purge] nor [Network.crash_pe]
   does), so the restore would rewrite the segment with itself. Re-homing the crashed
   PE's live vertices onto survivors preserves the reachable graph
   byte-for-byte. What is honestly lost is in-flight and pooled work
   ([crash_lost_tasks]); an interrupted marking phase is restarted
   ({!Cycle.restart_phase}) so no partial mark can masquerade as a
   finished wave. All of it runs serially at the top of the step, before
   the shards (which skip down PEs), so verdicts and digests stay
   bit-identical at every [domains] value. *)

let is_down t pe = t.down_since.(pe) >= 0

let up_count t =
  let n = ref 0 in
  for pe = 0 to t.num_pes - 1 do
    if not (is_down t pe) then incr n
  done;
  !n

let sync_ckpts t =
  if Array.length t.ckpts = 0 then
    t.ckpts <- Array.init t.num_pes (fun pe -> Checkpoint.create t.g ~pe);
  t.m.Metrics.ckpt_syncs <- t.m.Metrics.ckpt_syncs + 1;
  for pe = 0 to t.num_pes - 1 do
    ignore (Checkpoint.sync t.ckpts.(pe) ~now:t.now)
  done

(* A live vertex stranded on a down PE moves to an up one, round-robin
   by vid over [t.survivors]. Top-level, so the scan builds no closure. *)
let rehome_vertex t vx =
  let home = Vertex.pe vx in
  if home >= 0 && home < t.num_pes && is_down t home then begin
    let ns = t.n_survivors in
    Vertex.set_pe vx t.survivors.((((Vertex.id vx) mod ns) + ns) mod ns);
    t.m.Metrics.crash_rehomed <- t.m.Metrics.crash_rehomed + 1
  end

(* The crash itself. Caller guarantees [pe] is up and at least one other
   PE is up; with [restore], [t.ckpts.(pe)] was synced this step. *)
let crash_now t ~pe ~down ~restore =
  let lost = Pool.purge t.pools.(pe) + Network.crash_pe t.net ~pe in
  if restore then Checkpoint.restore t.ckpts.(pe);
  t.down_since.(pe) <- t.now;
  t.down_until.(pe) <- t.now + down;
  (* Re-home every live vertex stranded on a down PE (the whole-graph
     scan also catches vertices still pointing at an earlier crash's PE,
     e.g. two crashes in one step) onto the up PEs, round-robin by vid —
     deterministic, and balanced regardless of which PE died. *)
  let k = ref 0 in
  for p = 0 to t.num_pes - 1 do
    if not (is_down t p) then begin
      t.survivors.(!k) <- p;
      incr k
    end
  done;
  t.n_survivors <- !k;
  Graph.iter_live_with t.g t rehome_vertex;
  (* A marking wave the crash interrupted can never complete (marks bound
     for the dead PE are gone) and must not be trusted (its partial marks
     include state the restore rewound). Restart the phase on a fresh
     wave — no machine-wide purge: the dead wave's surviving tasks carry
     the old epoch and die at dispatch ([stale_marks_dropped]), its
     credits die at the detector, and the settled plane's verdict from
     the previous phase is untouched. *)
  (match t.cyc with
  | Some c when Cycle.phase c <> Cycle.Idle -> Cycle.restart_phase c
  | _ -> ());
  t.m.Metrics.crashes <- t.m.Metrics.crashes + 1;
  t.m.Metrics.crash_lost_tasks <- t.m.Metrics.crash_lost_tasks + lost;
  obs t (Dgr_obs.Event.Pe_crash { pe; lost; down })

(* The per-step crash tick: recover PEs whose downtime elapsed (they
   execute again this very step, empty-handed), then roll the crash dice
   in ascending PE order: a die for each up PE, then its downtime on a
   hit. A crash that would leave no survivor is suppressed — the
   fail-stop model assumes a majority of the machine outlives any fault
   (see {!Faults}). The crashes follow, in the same order, once every
   die is rolled: only a step with two or more crashes syncs the
   checkpoints first and restores each crashed segment, since a later
   crash's restore rewinds what an earlier one's re-homing wrote. A step
   with one crash or none pays nothing for checkpoints. *)
let crash_tick t =
  for pe = 0 to t.num_pes - 1 do
    if is_down t pe && t.now >= t.down_until.(pe) then begin
      let downtime = t.now - t.down_since.(pe) in
      t.down_since.(pe) <- -1;
      t.m.Metrics.recoveries <- t.m.Metrics.recoveries + 1;
      Dgr_obs.Hist.add t.m.Metrics.lat_recovery downtime;
      obs t (Dgr_obs.Event.Pe_recover { pe; down = downtime })
    end
  done;
  match t.flt with
  | Some f when f.Faults.spec.Faults.crash > 0.0 ->
    let up = ref (up_count t) and hits = ref 0 in
    for pe = 0 to t.num_pes - 1 do
      t.crash_down.(pe) <- 0;
      if (not (is_down t pe)) && Faults.crash_begins f ~pe && !up >= 2 then begin
        t.crash_down.(pe) <- Faults.down_length f;
        decr up;
        incr hits
      end
    done;
    if !hits > 0 then begin
      t.m.Metrics.crash_steps <- t.m.Metrics.crash_steps + 1;
      let restore = !hits >= 2 in
      if restore then sync_ckpts t;
      for pe = 0 to t.num_pes - 1 do
        if t.crash_down.(pe) > 0 then crash_now t ~pe ~down:t.crash_down.(pe) ~restore
      done
    end
  | _ -> ()

let inject_crash t ~pe ~down =
  let fail what =
    invalid_arg
      (Printf.sprintf "Engine.inject_crash: %s (PE %d, num_pes %d, downtime %d, %d PEs up)" what
         pe t.num_pes down (up_count t))
  in
  if t.num_pes < 2 then fail "need at least 2 PEs";
  if pe < 0 || pe >= t.num_pes then fail "no such PE";
  if is_down t pe then fail "PE already down";
  if up_count t < 2 then fail "would leave no survivor";
  if down < 1 then fail "downtime must be >= 1";
  t.crash_used <- true;
  t.m.Metrics.crash_steps <- t.m.Metrics.crash_steps + 1;
  crash_now t ~pe ~down ~restore:false

let pe_down t pe = pe >= 0 && pe < t.num_pes && is_down t pe

let pe_stalled t pe = pe >= 0 && pe < t.num_pes && t.now < t.stall_until.(pe)

let step t =
  t.clocked <- t.now mod Profile.stride = 0;
  if t.clocked then t.prof.Profile.clocked <- t.prof.Profile.clocked + 1;
  let w0 = Gc.minor_words () in
  t.ph_ns.(k_at) <- read t;
  t.ph_mw.(k_at) <- w0;
  (match t.recorder with Some r -> Dgr_obs.Recorder.set_now r t.now | None -> ());
  (* Every vertex allocated from here on is this step's: the ownership
     checker exempts same-step births (a PE wires up its own fresh
     template vertices before they are published to anyone). *)
  Graph.bump_epoch t.g;
  (* 0. The crash plane: recoveries, then crash dice (a step with two
     or more crashes syncs the checkpoints before its first crash) —
     before delivery, so frames arriving at a PE that crashes this step
     die with it. Never entered by a machine that cannot crash, keeping
     fault-free runs byte-identical to builds without the plane. *)
  if t.crash_used then crash_tick t;
  (* 1. Deliver the network: reduction tasks go straight into the
     destination pools (the lineage ticket rides along as the pool
     stamp), and each frame holding a mark is parked for its
     destination's shard, which pushes the marks into its own pool in
     step 2. A mark push reads no graph state, so the shards can take
     that work off the serial path; each pool still receives its marks
     in delivery order. Either way the destination joins the busy set:
     from here to bookkeeping the step visits only those PEs. *)
  Network.deliver_serial t.net ~now:t.now ~push:t.push_due;
  lap t k_transport;
  (* 2. Execute, unless the machine is paused by a collection. Marking
     tasks are lightweight (§6: "bounded amount of time once the required
     vertices are accessed") and get their own per-step budget so GC
     neither starves nor is starved by the reduction process. Epoch
     overlap: while the machine is paused for cycle N's restructure,
     cycle N+1's mark wave may already be open — its tasks carry the new
     epoch and touch nothing the pause protects, so the marking budgets
     keep draining while reduction stays stopped. *)
  let running = t.now >= t.paused_until in
  if running || match t.cyc with Some c -> Cycle.phase c <> Cycle.Idle | None -> false
  then begin
    (* Every busy PE runs against its private context, shard after
       shard. Cooperation bodies are deferred for the barrier replay. *)
    t.mark_only <- not running;
    (match t.flt with Some f -> roll_stalls t f | None -> ());
    gather t;
    Mutator.set_defer t.mut t.coop_sink;
    Network.shard_phase t.net;
    let k = ref 0 in
    for d = 0 to t.domains - 1 do
      k := run_shard t d !k
    done;
    lap t k_execute;
    merge_shards t
  end
  else begin
    (* No shard runs: the busy pools take their parked marks here. *)
    gather t;
    for k = 0 to t.n_visit - 1 do
      let pe = t.visit.(k) in
      Network.take_mark_lanes t.net ~pe (Pool.marks t.pools.(pe))
    done;
    lap t k_execute
  end;
  (* 3. Memory management. *)
  gc_control t;
  (* Flood termination heartbeats: while a flood phase is in progress
     every up PE periodically posts its (epoch, sent, executed) credit
     as a standalone loss-free control message, so the detector hears
     from PEs the data traffic never visits. Deterministic: driven by
     [t.now] and machine state only. *)
  (match active_handler t with
  | Some (Cycle.Flood_run fl) ->
    let ht = Int.max 1 (t.latency / 4) in
    if t.now mod ht = 0 then
      for pe = 0 to t.num_pes - 1 do
        if t.down_since.(pe) < 0 then
          Network.post_credit t.net ~arrival:(t.now + ht) ~pe ~epoch:fl.Flood.wave
            ~sent:(Flood.sent_on fl ~pe) ~executed:(Flood.executed_on fl ~pe)
      done
  | Some (Cycle.Tree_run _) | None -> ());
  lap t k_gc;
  (* 4. Bookkeeping, whose only per-PE pass is the busy set's. *)
  (match (Reducer.finished t.cctl.pred, t.m.Metrics.completion_step) with
  | true, None ->
    t.m.Metrics.completion_step <- Some t.now;
    obs t Dgr_obs.Event.Finished
  | _ -> ());
  (* The pool-depth sum over the visit list, the only PEs with a pool;
     a PE whose turn left its pool empty (its turn emptied its inbox)
     leaves the busy set. *)
  let depth = ref 0 in
  for k = 0 to t.n_visit - 1 do
    let pe = t.visit.(k) in
    let d = Pool.length t.pools.(pe) in
    t.depths.(pe) <- d;
    depth := !depth + d;
    if d = 0 then Bitset.remove t.busy pe
  done;
  Dgr_util.Stats.add t.m.Metrics.pool_depth !depth;
  t.m.Metrics.peak_live <- Int.max t.m.Metrics.peak_live (Graph.live_count t.g);
  (match t.flt with
  | None -> ()
  | Some f ->
    t.m.Metrics.msgs_dropped <- f.Faults.drops;
    t.m.Metrics.msgs_duplicated <- f.Faults.dups;
    t.m.Metrics.msgs_delayed <- f.Faults.delays;
    t.m.Metrics.retransmits <- f.Faults.retransmits;
    t.m.Metrics.dup_suppressed <- f.Faults.dup_suppressed;
    t.m.Metrics.stalls <- f.Faults.stalls;
    t.m.Metrics.stall_steps <- f.Faults.stall_steps);
  t.m.Metrics.frames_sent <- Network.frames_sent t.net;
  t.m.Metrics.acks_sent <- Network.acks_sent t.net;
  t.m.Metrics.acks_piggybacked <- Network.acks_piggybacked t.net;
  t.m.Metrics.tasks_sent <- Network.tasks_sent t.net;
  health_check t ~pooled:(!depth > 0);
  (match t.recorder with
  | None -> ()
  | Some r ->
    Dgr_obs.Recorder.tick r ~live:(Graph.live_count t.g) ~in_flight:(Network.size t.net)
      ~headroom:(match Graph.capacity t.g with None -> -1 | Some _ -> Graph.headroom t.g)
      ~pool_depth:t.depths);
  t.now <- t.now + 1;
  t.m.Metrics.steps <- t.m.Metrics.steps + 1;
  lap t k_book;
  t.ph_mw.(k_total) <- t.ph_mw.(k_total) +. (t.ph_mw.(k_at) -. w0);
  t.prof.Profile.steps <- t.prof.Profile.steps + 1

let result t = t.cctl.pred.Reducer.result

let finished t = Reducer.finished t.cctl.pred

let run ?(max_steps = 1_000_000) ?stop t =
  let start = t.now in
  (* Under the concurrent collector the mark/restructure cycle "is
     repeated endlessly" (§4) — a task-quiescent machine is not done (a
     deadlocked computation stays quiescent forever, and detecting that is
     the point), so only the stop condition or the step budget end the
     run. The default stop condition is program completion; an explicit
     [stop] replaces it (e.g. to keep collecting after the result). *)
  let stop = match stop with Some f -> f | None -> finished in
  let gc_cycles_forever = match t.gc_mode with Concurrent _ -> true | _ -> false in
  let gcs0 = (Gc.quick_stat ()).Gc.minor_collections in
  let continue = ref true in
  while !continue do
    if stop t || t.now - start >= max_steps then continue := false
    else if (not gc_cycles_forever) && quiescent t && t.now >= t.paused_until then
      continue := false
    else step t
  done;
  t.prof.Profile.minor_gcs <-
    t.prof.Profile.minor_gcs + (Gc.quick_stat ()).Gc.minor_collections - gcs0;
  t.now - start
