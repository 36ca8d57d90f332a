(* Whole-PE crashes: the fail-stop plane and its recovery machinery.

   Four layers:
   - the network's view of a crash ([Network.crash_pe]): in-flight
     frames on both link directions die — batched and staged frames
     included — retransmit timers are cancelled, and per-link sequence
     state resets without dedup false-positives, and nothing queued
     before the crash acts on the restarted link;
   - the engine's view ([Engine.inject_crash]): pool and segment lost,
     checkpoint restore, re-homing onto survivors, a marking wave caught
     mid-phase is invalidated and restarted (tree and flood schemes),
     the crash/recover pair lands in the typed event stream, and a step
     that crashes three PEs restores all of them from one sync;
   - the guard rails: a crash may never leave the machine without a
     survivor;
   - the report: a run that crashed still renders byte-identically
     across repeats and across 1/2/4 domains. *)
open Dgr_graph
open Dgr_util
open Dgr_sim
open Dgr_task

let registry () = Dgr_reduction.Template.create_registry ()

(* --- the network under a crash --------------------------------------- *)

let drain ?(from = 0) net =
  let out = ref [] in
  let now = ref from in
  while Network.size net > 0 && !now < from + 100_000 do
    incr now;
    out := !out @ Helpers.deliver net ~now:!now
  done;
  Alcotest.(check int) "network drained" 0 (Network.size net);
  !out

let settle_acks ?(from = 100_000) net =
  let now = ref from in
  while Network.unacked net > 0 && !now < from + 200_000 do
    incr now;
    ignore (Helpers.deliver net ~now:!now)
  done;
  Alcotest.(check int) "every surviving data frame cumulatively acked" 0
    (Network.unacked net)

let vids_of delivered =
  List.filter_map
    (function
      | _, Task.Reduction (Task.Request { dst; _ }) -> Some dst
      | _ -> None)
    delivered
  |> List.sort compare

(* A crash discards every frame touching the PE in either direction —
   the three-task batch inbound, the outbound frame it had in flight —
   while traffic between survivors is untouched. Staged (not yet
   flushed) batches die too. *)
let test_crash_purges_in_flight () =
  (* stall-only spec: reliable layer on, no frame ever dropped,
     duplicated or delayed — the schedule below is exact *)
  let f = Faults.create { Faults.none with Faults.stall = 0.5; fault_seed = 21 } in
  let net = Network.create ~faults:f () in
  for i = 1 to 3 do
    Network.send ~src:0 net ~arrival:3 ~pe:1 (Task.request i Demand.Vital)
  done;
  Network.send ~src:0 net ~arrival:3 ~pe:2 (Task.request 4 Demand.Vital);
  Network.send ~src:0 net ~arrival:3 ~pe:2 (Task.request 5 Demand.Vital);
  Network.send ~src:1 net ~arrival:3 ~pe:2 (Task.request 6 Demand.Vital);
  Network.send ~src:2 net ~arrival:3 ~pe:0 (Task.request 7 Demand.Vital);
  (* tick once so the four (src, dst, arrival) batches flush as frames *)
  Alcotest.(check int) "nothing due yet" 0 (List.length (Helpers.deliver net ~now:1));
  Alcotest.(check int) "four data frames in flight" 4 (Network.frames_sent net);
  let lost = Network.crash_pe net ~pe:1 in
  Alcotest.(check int) "batched inbound + outbound tasks lost" 4 lost;
  Alcotest.(check int) "survivor traffic still queued" 3 (Network.size net);
  let delivered = drain ~from:1 net in
  Alcotest.(check (list int)) "exactly the survivor-link tasks arrive" [ 4; 5; 7 ]
    (vids_of delivered);
  settle_acks net;
  (* staged batches (never flushed into a frame) die with the PE too *)
  Network.send ~src:0 net ~arrival:300_500 ~pe:2 (Task.request 8 Demand.Vital);
  Network.send ~src:2 net ~arrival:300_500 ~pe:0 (Task.request 9 Demand.Vital);
  Alcotest.(check int) "two staged tasks lost with PE 2" 2
    (Network.crash_pe net ~pe:2);
  Alcotest.(check int) "nothing survives them" 0 (Network.size net)

(* After a crash the link restarts at sequence 0. The receiver saw seq 0
   before the crash — if the reset left any dedup state behind, the
   first post-recovery frame would be swallowed as a replay. *)
let test_seq_reset_no_false_positive () =
  let f = Faults.create { Faults.none with Faults.stall = 0.5; fault_seed = 4 } in
  let net = Network.create ~faults:f () in
  Network.send ~src:0 net ~arrival:2 ~pe:1 (Task.request 1 Demand.Vital);
  ignore (Helpers.deliver net ~now:1);
  Alcotest.(check (list int)) "pre-crash frame (seq 0) delivered" [ 1 ]
    (vids_of (Helpers.deliver net ~now:2));
  (* delivered but not yet acked: the crash loses only its bookkeeping *)
  Alcotest.(check bool) "frame awaited its ack" true (Network.unacked net > 0);
  Alcotest.(check int) "no undelivered task lost" 0 (Network.crash_pe net ~pe:1);
  Alcotest.(check int) "pending table cleared by the crash" 0 (Network.unacked net);
  (* post-recovery traffic reuses seq 0 on the same link *)
  Network.send ~src:0 net ~arrival:4 ~pe:1 (Task.request 2 Demand.Vital);
  ignore (Helpers.deliver net ~now:3);
  Alcotest.(check (list int)) "seq-0 reuse is delivered, not deduped" [ 2 ]
    (vids_of (Helpers.deliver net ~now:4));
  settle_acks net

(* Same property under a lossy, duplicating, reordering channel: every
   post-crash task arrives exactly once, every pre-crash in-flight task
   never arrives — even via a late retransmission. *)
let test_seq_reset_under_faults () =
  let f =
    Faults.create
      { Faults.none with
        Faults.drop = 0.3; duplicate = 0.3; delay = 0.3; fault_seed = 31 }
  in
  let net = Network.create ~faults:f () in
  for i = 1 to 20 do
    Network.send ~src:0 net ~arrival:(2 + (i mod 5)) ~pe:1 (Task.request i Demand.Vital)
  done;
  let early = ref [] in
  for now = 1 to 6 do
    early := !early @ Helpers.deliver net ~now
  done;
  let lost = Network.crash_pe net ~pe:1 in
  Alcotest.(check int) "crash lost exactly the undelivered tasks" 20
    (List.length !early + lost);
  Alcotest.(check int) "nothing left in flight" 0 (Network.size net);
  for i = 101 to 140 do
    Network.send ~src:0 net ~arrival:(8 + (i mod 7)) ~pe:1 (Task.request i Demand.Vital)
  done;
  let later = drain ~from:6 net in
  Alcotest.(check (list int)) "every post-crash task exactly once, no ghosts"
    (List.init 40 (fun i -> 101 + i))
    (vids_of later);
  settle_acks net

(* Nothing sent before a crash acts on the restarted link. Link 0->1
   holds a delivered frame whose ack is owed (seq 0) and an undelivered
   one still queued with its timer (seq 1) when PE 1 crashes; the
   restarted link reuses seq 0. The stale ack is never sent, the queued
   seq-1 copy is not delivered onto the fresh link (where seq 1 would be
   next in order), and no stale timer retransmits anything. *)
let test_crash_leaves_nothing_on_restarted_link () =
  (* stall-only spec: no frame is ever dropped, so any retransmission
     or duplicate below could only come from pre-crash state *)
  let f = Faults.create { Faults.none with Faults.stall = 0.5; fault_seed = 9 } in
  let net = Network.create ~faults:f () in
  Network.send ~src:0 net ~arrival:2 ~pe:1 (Task.request 1 Demand.Vital);
  Network.send ~src:0 net ~arrival:6 ~pe:1 (Task.request 3 Demand.Vital);
  ignore (Helpers.deliver net ~now:1);
  Alcotest.(check (list int)) "seq 0 delivered before the crash" [ 1 ]
    (vids_of (Helpers.deliver net ~now:2));
  Alcotest.(check int) "the queued seq-1 task is lost" 1 (Network.crash_pe net ~pe:1);
  Network.send ~src:0 net ~arrival:4 ~pe:1 (Task.request 2 Demand.Vital);
  (* past every pre-crash timer (the seq-1 frame's fires at step 15) *)
  let after = ref [] in
  for now = 3 to 20 do
    after := !after @ Helpers.deliver net ~now
  done;
  Alcotest.(check (list int)) "only the post-crash task arrives" [ 2 ] (vids_of !after);
  Alcotest.(check int) "the restarted link's frame is acked" 0 (Network.unacked net);
  Alcotest.(check int) "no stale timer retransmitted" 0 f.Faults.retransmits;
  Alcotest.(check int) "no stale copy suppressed as a duplicate" 0 f.Faults.dup_suppressed;
  Alcotest.(check int) "one standalone ack: the restarted link's" 1 (Network.acks_sent net)

(* --- the engine under an injected crash ------------------------------ *)

let crash_events r =
  List.filter_map
    (function
      | { Dgr_obs.Event.kind = Dgr_obs.Event.Pe_crash { pe; lost; down }; step; _ } ->
        Some (`Crash (pe, lost, down, step))
      | { Dgr_obs.Event.kind = Dgr_obs.Event.Pe_recover { pe; down }; step; _ } ->
        Some (`Recover (pe, down, step))
      | _ -> None)
    (Dgr_obs.Recorder.events r)

(* The fault-free oracle: collect the replica (the same graph under the
   same mutations, never crashed) stop-the-world, and demand the
   machine's live set and its last cycle's deadlock verdict match. *)
let check_oracle ctx ~machine ~replica c =
  let (_ : Helpers.Stw.report) = Helpers.Stw.collect replica in
  Helpers.check_vid_set (ctx ^ ": live set = fault-free STW live set")
    (Vid.Set.of_list (Graph.live_vids replica))
    (Vid.Set.of_list (Graph.live_vids machine));
  let oracle = Dgr_analysis.Classify.compute (Snapshot.take replica) ~tasks:[] in
  let report = Option.get (Dgr_core.Cycle.last_report c) in
  Helpers.check_vid_set (ctx ^ ": deadlock verdict = oracle DL'")
    oracle.Dgr_analysis.Classify.deadlocked
    (Vid.Set.of_list report.Dgr_core.Restructure.deadlocked)

(* Mutate a replica-backed machine into having garbage, step into the
   middle of a marking phase, crash a PE there, and settle: the partial
   wave is invalidated, the restarted cycles must still converge on
   exactly the fault-free STW oracle's live set and deadlock verdict. *)
let run_mid_phase_crash ~marking ~seed =
  let ctx = Printf.sprintf "seed %d" seed in
  let num_pes = 4 in
  let spec = Helpers.fuzz_spec seed in
  let ga = Builder.random ~num_pes (Rng.create seed) spec in
  let gb = Builder.random ~num_pes (Rng.create seed) spec in
  let r = Dgr_obs.Recorder.create ~num_pes () in
  let config =
    Engine.Config.make ~num_pes ~seed ~marking
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 8 })
      ()
  in
  let e = Engine.create ~recorder:r ~config ga (registry ()) in
  let rng = Rng.create (seed lxor 0x51ec) in
  let schedule = Helpers.gen_schedule rng gb ~ops:12 in
  let mut = Engine.mutator e in
  List.iter
    (fun op ->
      Helpers.apply_mutation mut op;
      for _ = 1 to Rng.int rng 4 do
        Engine.step e
      done)
    schedule;
  let c = Option.get (Engine.cycle e) in
  (* step into the cooperation phase — PEs mid-wave — then pull the plug *)
  let guard = ref 0 in
  while Dgr_core.Cycle.phase c <> Dgr_core.Cycle.Mark_tasks && !guard < 10_000 do
    incr guard;
    Engine.step e
  done;
  Alcotest.(check bool) (ctx ^ ": reached the cooperation phase") true
    (Dgr_core.Cycle.phase c = Dgr_core.Cycle.Mark_tasks);
  Engine.inject_crash e ~pe:1 ~down:6;
  Alcotest.(check bool) (ctx ^ ": PE 1 reports down") true (Engine.pe_down e 1);
  (* no live vertex may still be homed for execution at the corpse *)
  Graph.iter_live
    (fun v ->
      if (Vertex.pe v) = 1 then
        Alcotest.failf "%s: v%d still owned by the crashed PE" ctx (Vertex.id v))
    (Engine.graph e);
  let target = Dgr_core.Cycle.cycles_completed c + 6 in
  let guard = ref 0 in
  while Dgr_core.Cycle.cycles_completed c < target && !guard < 400_000 do
    incr guard;
    Engine.step e
  done;
  Alcotest.(check bool) (ctx ^ ": cycles keep completing after the crash") true
    (Dgr_core.Cycle.cycles_completed c >= target);
  Alcotest.(check bool) (ctx ^ ": PE 1 recovered") false (Engine.pe_down e 1);
  (* the restarted waves converge on the fault-free oracle *)
  check_oracle ctx ~machine:ga ~replica:gb c;
  Alcotest.(check (list string)) (ctx ^ ": machine graph validates") []
    (Validate.check ga);
  (* the crash and its recovery landed as typed events, downtime exact *)
  let m = Engine.metrics e in
  Alcotest.(check (pair int int)) (ctx ^ ": one crash, one recovery") (1, 1)
    (m.Metrics.crashes, m.Metrics.recoveries);
  (match crash_events r with
  | [ `Crash (1, _, 6, at_c); `Recover (1, 6, at_r) ] ->
    Alcotest.(check bool) (ctx ^ ": recovery fired after the crash") true (at_r > at_c)
  | evs -> Alcotest.failf "%s: expected crash/recover pair, got %d events" ctx
             (List.length evs));
  Alcotest.(check int) (ctx ^ ": downtime histogram recorded exactly 6 steps") 6
    (Dgr_obs.Hist.max_value m.Metrics.lat_recovery);
  Alcotest.(check int) (ctx ^ ": one downtime sample") 1
    (Dgr_obs.Hist.count m.Metrics.lat_recovery)

let test_crash_mid_wave_tree () = run_mid_phase_crash ~marking:Dgr_core.Cycle.Tree ~seed:3

(* Flood scheme: no return tasks — quiescence is re-derived by the
   termination detector, which must never be resumed across a crash. *)
let test_crash_mid_wave_flood () =
  run_mid_phase_crash ~marking:Dgr_core.Cycle.Flood_counters ~seed:5

(* Several crashes in one step: at crash rate 1.0 on 4 PEs the first
   step crashes PEs 0, 1 and 2 and suppresses PE 3's crash (it is the
   last survivor). The checkpoints are synced once, before the first of
   those crashes, and the second and third restore from that same copy;
   PEs that come back crash again at once while another PE is up (long
   downtimes leave PE 3 alone long enough for waves to finish). The
   graph must validate after every step, the restarted waves must
   converge on the fault-free STW oracle, and the end state must not
   depend on the domain count. *)
let run_multi_crash ~domains =
  let seed = 7 and num_pes = 4 in
  let ctx = Printf.sprintf "%d domain(s)" domains in
  let spec = Helpers.fuzz_spec seed in
  let ga = Builder.random ~num_pes (Rng.create seed) spec in
  let gb = Builder.random ~num_pes (Rng.create seed) spec in
  let config =
    Engine.Config.make ~num_pes ~domains ~seed
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 8 })
      ~faults:
        { Faults.none with Faults.drop = 0.05; crash = 1.0; crash_down_max = 400;
          fault_seed = seed }
      ()
  in
  let e = Engine.create ~config ga (registry ()) in
  let step () =
    Engine.step e;
    match Validate.check ga with
    | [] -> ()
    | errs ->
      Alcotest.failf "%s, step %d: %s" ctx (Engine.now e) (String.concat "; " errs)
  in
  step ();
  Alcotest.(check int) (ctx ^ ": three crashes in the first step") 3
    (Engine.metrics e).Metrics.crashes;
  Alcotest.(check (list bool)) (ctx ^ ": PE 3 is the survivor") [ true; true; true; false ]
    (List.init num_pes (Engine.pe_down e));
  let rng = Rng.create (seed lxor 0x51ec) in
  let mut = Engine.mutator e in
  List.iter
    (fun op ->
      Helpers.apply_mutation mut op;
      for _ = 1 to Rng.int rng 4 do
        step ()
      done)
    (Helpers.gen_schedule rng gb ~ops:12);
  let c = Option.get (Engine.cycle e) in
  let target = Dgr_core.Cycle.cycles_completed c + 4 in
  let guard = ref 0 in
  while Dgr_core.Cycle.cycles_completed c < target && !guard < 100_000 do
    incr guard;
    step ()
  done;
  Alcotest.(check bool) (ctx ^ ": cycles keep completing") true
    (Dgr_core.Cycle.cycles_completed c >= target);
  let m = Engine.metrics e in
  Alcotest.(check bool) (ctx ^ ": PEs crashed again after recovering") true
    (m.Metrics.crashes > 3 && m.Metrics.recoveries > 0);
  check_oracle ctx ~machine:ga ~replica:gb c;
  Printf.sprintf "now=%d crashes=%d recoveries=%d rehomed=%d live=%s" (Engine.now e)
    m.Metrics.crashes m.Metrics.recoveries m.Metrics.crash_rehomed
    (Helpers.live_digest ga)

let test_multi_crash_step () =
  let one = run_multi_crash ~domains:1 in
  Alcotest.(check string) "same end state at 2 domains" one (run_multi_crash ~domains:2);
  Alcotest.(check string) "same end state at 4 domains" one (run_multi_crash ~domains:4)

(* Words allocated by [f], minor and major heap alike. *)
let words_of f =
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* A lone crash needs no checkpoint: nothing between a sync and its
   restore would write the graph, so the restore would rewrite the
   segment with itself. Syncing the checkpoints of a 2,000-vertex graph
   allocates tens of thousands of words; the crash itself (pool purge,
   severed links, re-home scan, phase restart) a few hundred. *)
let test_single_crash_no_checkpoint () =
  let num_pes = 4 in
  let spec =
    { Builder.live = 2000; garbage = 200; free_pool = 64; avg_degree = 2.0; cycle_bias = 0.1 }
  in
  let g = Builder.random ~num_pes (Rng.create 5) spec in
  Alcotest.(check bool) "a graph of at least 2,000 vertices" true (Graph.vertex_count g >= 2000);
  let config =
    Engine.Config.make ~num_pes ~seed:5
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 8 })
      ~faults:{ Faults.none with Faults.drop = 0.05; fault_seed = 5 }
      ()
  in
  let e = Engine.create ~config g (registry ()) in
  for _ = 1 to 40 do
    Engine.step e
  done;
  let words = words_of (fun () -> Engine.inject_crash e ~pe:1 ~down:5) in
  let m = Engine.metrics e in
  Alcotest.(check int) "the crash happened" 1 m.Metrics.crashes;
  Alcotest.(check int) "no checkpoint sync" 0 m.Metrics.ckpt_syncs;
  Alcotest.(check bool) (Printf.sprintf "%.0f words for one crash" words) true (words <= 256.);
  for _ = 1 to 40 do
    Engine.step e
  done;
  Alcotest.(check (list string)) "graph valid after recovery" [] (Validate.check g)

let test_inject_crash_guards () =
  let g = Builder.random ~num_pes:2 (Rng.create 1) (Helpers.fuzz_spec 1) in
  let config = Engine.Config.make ~num_pes:2 () in
  let e = Engine.create ~config g (registry ()) in
  Alcotest.check_raises "out-of-range PE"
    (Invalid_argument
       "Engine.inject_crash: no such PE (PE 2, num_pes 2, downtime 4, 2 PEs up)")
    (fun () -> Engine.inject_crash e ~pe:2 ~down:4);
  Alcotest.check_raises "zero downtime"
    (Invalid_argument
       "Engine.inject_crash: downtime must be >= 1 (PE 0, num_pes 2, downtime 0, 2 PEs up)")
    (fun () -> Engine.inject_crash e ~pe:0 ~down:0);
  Engine.inject_crash e ~pe:0 ~down:1000;
  Alcotest.check_raises "double crash"
    (Invalid_argument
       "Engine.inject_crash: PE already down (PE 0, num_pes 2, downtime 4, 1 PEs up)")
    (fun () -> Engine.inject_crash e ~pe:0 ~down:4);
  Alcotest.check_raises "last survivor is protected"
    (Invalid_argument
       "Engine.inject_crash: would leave no survivor (PE 1, num_pes 2, downtime 4, 1 PEs up)")
    (fun () -> Engine.inject_crash e ~pe:1 ~down:4)

(* --- the report after a crash ---------------------------------------- *)

(* A crashed run's deterministic report is byte-reproducible and domain
   independent: render it twice at 1 domain and once each at 2 and 4,
   all four strings must be equal — and must actually contain the crash
   section. *)
let test_crash_report_byte_identical () =
  let render domains =
    let config =
      Engine.Config.make ~num_pes:4 ~domains ~seed:2
        ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 20 })
        ~faults:
          { Faults.none with
            Faults.drop = 0.02; delay = 0.05; crash = 0.01; crash_down_max = 12;
            fault_seed = 7 }
        ()
    in
    let g, templates =
      Dgr_lang.Compile.load_string ~num_pes:4 (Dgr_lang.Prelude.fib 10)
    in
    let e = Engine.create ~config g templates in
    Engine.inject_root_demand e;
    let (_ : int) = Engine.run ~max_steps:6_000 e in
    let m = Engine.metrics e in
    Alcotest.(check bool) "the run actually crashed" true (m.Metrics.crashes > 0);
    let out = Dgr_harness.Report.render ~deterministic:true e in
    out
  in
  let a = render 1 in
  Alcotest.(check bool) "report carries the crash section" true
    (let re = "-- crash recovery --" in
     let rec find i =
       i + String.length re <= String.length a
       && (String.sub a i (String.length re) = re || find (i + 1))
     in
     find 0);
  Alcotest.(check string) "byte-identical across repeats" a (render 1);
  Alcotest.(check string) "byte-identical at 2 domains" a (render 2);
  Alcotest.(check string) "byte-identical at 4 domains" a (render 4)

let suite =
  [
    Alcotest.test_case "crash purges in-flight and staged frames" `Quick
      test_crash_purges_in_flight;
    Alcotest.test_case "seq reset survives a delivered-unacked frame" `Quick
      test_seq_reset_no_false_positive;
    Alcotest.test_case "seq reset is dedup-safe under faults" `Quick
      test_seq_reset_under_faults;
    Alcotest.test_case "crash mid-wave: tree marking recovers" `Slow
      test_crash_mid_wave_tree;
    Alcotest.test_case "crash mid-wave: flood quiescence re-derived" `Slow
      test_crash_mid_wave_flood;
    Alcotest.test_case "multi-crash step restores from one sync" `Slow
      test_multi_crash_step;
    Alcotest.test_case "a single crash neither syncs nor restores" `Quick
      test_single_crash_no_checkpoint;
    Alcotest.test_case "inject_crash guard rails" `Quick test_inject_crash_guards;
    Alcotest.test_case "crashed report is byte-identical at 1/2/4 domains" `Slow
      test_crash_report_byte_identical;
    Alcotest.test_case "a crash leaves nothing that acts on the restarted link" `Quick
      test_crash_leaves_nothing_on_restarted_link;
  ]
