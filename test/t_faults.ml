(* The fault plane (drop / duplicate / delay / stall) and the reliable-
   delivery layer that re-earns exactly-once effect over it.

   Three layers of evidence:
   - unit tests of the network's ack/retransmit/dedup machinery;
   - differential fuzzing: a machine collecting concurrently under heavy
     faults must end with exactly the live set (and deadlock verdict) a
     fault-free stop-the-world oracle computes on an identical replica;
   - invariant-at-every-step: the marking-tree invariants hold after
     every single engine step while the channel misbehaves.

   The differential seed block is offset by [DGR_FAULT_SEED_BASE] so CI
   can matrix disjoint blocks without touching the code. *)
open Dgr_graph
open Dgr_util
open Dgr_sim
open Dgr_task

let registry () = Dgr_reduction.Template.create_registry ()

let seed_base () =
  match Sys.getenv_opt "DGR_FAULT_SEED_BASE" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
  | None -> 0

(* --- the reliable layer, in isolation -------------------------------- *)

(* Drive [deliver] step by step until nothing is undelivered; returns all
   (pe, task) handed up. The bound is generous: retransmission backoff
   caps, so every frame is eventually delivered with probability 1. *)
let drain net =
  let out = ref [] in
  let now = ref 0 in
  while Network.size net > 0 && !now < 100_000 do
    incr now;
    out := !out @ Helpers.deliver net ~now:!now
  done;
  Alcotest.(check int) "network drained" 0 (Network.size net);
  !out

let test_everything_duplicated () =
  let f =
    Faults.create { Faults.none with Faults.duplicate = 1.0; fault_seed = 3 }
  in
  let net = Network.create ~faults:f () in
  for i = 1 to 5 do
    Network.send ~src:0 net ~arrival:(i + 1) ~pe:(i mod 2) (Task.request i Demand.Vital)
  done;
  let delivered = drain net in
  Alcotest.(check int) "each task handed up exactly once" 5 (List.length delivered);
  Alcotest.(check bool) "channel duplicated frames" true (f.Faults.dups >= 5);
  Alcotest.(check bool) "dedup swallowed the copies" true (f.Faults.dup_suppressed >= 5)

let test_heavy_drop_still_delivers () =
  let f = Faults.create { Faults.none with Faults.drop = 0.5; fault_seed = 11 } in
  let net = Network.create ~faults:f () in
  let n = 30 in
  for i = 1 to n do
    Network.send ~src:(i mod 3) net ~arrival:(2 + (i mod 5)) ~pe:(i mod 4)
      (Task.request i Demand.Vital)
  done;
  let delivered = drain net in
  Alcotest.(check int) "every send delivered despite 50% loss" n (List.length delivered);
  let vids =
    List.filter_map
      (function
        | _, Task.Reduction (Task.Request { dst; _ }) -> Some dst
        | _ -> None)
      delivered
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "exactly once each" n (List.length vids);
  Alcotest.(check bool) "frames were lost" true (f.Faults.drops > 0);
  Alcotest.(check bool) "losses forced retransmits" true (f.Faults.retransmits > 0)

let test_faulted_purge_stops_retransmission () =
  let f = Faults.create { Faults.none with Faults.drop = 0.3; fault_seed = 5 } in
  let r = Dgr_obs.Recorder.create ~num_pes:4 () in
  let net = Network.create ~recorder:r ~faults:f () in
  Network.send ~src:0 net ~arrival:3 ~pe:2 (Task.request 7 Demand.Vital);
  Network.send ~src:0 net ~arrival:3 ~pe:3 (Task.request 8 Demand.Vital);
  Network.send ~src:1 net ~arrival:3 ~pe:3 (Task.request 9 Demand.Vital);
  let purged =
    Network.purge net (function
      | Task.Reduction (Task.Request { dst; _ }) -> dst <> 8
      | _ -> false)
  in
  Alcotest.(check int) "two purged" 2 purged;
  Alcotest.(check int) "one undelivered left" 1 (Network.size net);
  let purge_events =
    List.filter_map
      (function
        | { Dgr_obs.Event.kind = Dgr_obs.Event.Purge { pe; count }; _ } -> Some (pe, count)
        | _ -> None)
      (Dgr_obs.Recorder.events r)
  in
  Alcotest.(check (list (pair int int))) "purge events name the real PEs, ascending"
    [ (2, 1); (3, 1) ] purge_events;
  (* The survivor still arrives — purged frames never do, even via
     late retransmission. *)
  let delivered = drain net in
  Alcotest.(check bool) "only vid 8 delivered" true
    (List.for_all
       (function
         | _, Task.Reduction (Task.Request { dst; _ }) -> dst = 8
         | _ -> false)
       delivered
    && delivered <> [])

(* --- batched frames: purge, cumulative acks, sequence guard ----------- *)

(* Step [deliver] past [drain]'s stopping point until every data frame is
   cumulatively acked: acks can be lost, but every (re)delivery re-owes
   the watermark, so the pending set empties with probability 1. *)
let settle_acks net =
  let now = ref 100_000 in
  while Network.unacked net > 0 && !now < 300_000 do
    incr now;
    ignore (Helpers.deliver net ~now:!now)
  done;
  Alcotest.(check int) "every data frame cumulatively acked" 0 (Network.unacked net)

(* Purging tasks out of batched frames: survivors in a partially-purged
   batch still arrive exactly once, a fully-purged batch's queued copies
   and retransmit timer die with it, and the sequence hole it leaves is
   skipped by the cumulative acks — nothing is acked twice, nothing
   blocks behind the hole. *)
let test_purge_batched_frames () =
  let f = Faults.create { Faults.none with Faults.drop = 0.3; fault_seed = 21 } in
  let net = Network.create ~faults:f () in
  (* one three-task batch on link 0->1, one singleton batch on 0->2 *)
  Network.send ~src:0 net ~arrival:3 ~pe:1 (Task.request 1 Demand.Vital);
  Network.send ~src:0 net ~arrival:3 ~pe:1 (Task.request 2 Demand.Vital);
  Network.send ~src:0 net ~arrival:3 ~pe:1 (Task.request 3 Demand.Vital);
  Network.send ~src:0 net ~arrival:3 ~pe:2 (Task.request 4 Demand.Vital);
  (* tick once so the batches flush into the channel as frames *)
  Alcotest.(check int) "nothing due yet" 0 (List.length (Helpers.deliver net ~now:1));
  Alcotest.(check int) "two data frames flushed" 2 (Network.frames_sent net);
  let purged =
    Network.purge net (function
      | Task.Reduction (Task.Request { dst; _ }) -> dst = 1 || dst = 3 || dst = 4
      | _ -> false)
  in
  Alcotest.(check int) "three tasks purged out of the frames" 3 purged;
  Alcotest.(check int) "one survivor undelivered" 1 (Network.size net);
  let delivered = drain net in
  Alcotest.(check bool) "exactly the survivor arrived, once" true
    (match delivered with
    | [ (1, Task.Reduction (Task.Request { dst = 2; _ })) ] -> true
    | _ -> false);
  (* the fully-purged frame left a hole on link 0->2; the watermark must
     skip it so the link's pending set still empties *)
  settle_acks net

(* The cumulative ack piggybacks on the LAST reverse data frame of the
   flush, not the first: an earlier reverse frame leaves the sender's
   pending entry alone, and only the final frame's arrival clears it. *)
let test_piggyback_on_last_reverse_frame () =
  (* stall-only spec: the reliable layer is on, but no frame is ever
     dropped, duplicated or delayed — the schedule below is exact *)
  let f = Faults.create { Faults.none with Faults.stall = 0.9; fault_seed = 2 } in
  let r = Dgr_obs.Recorder.create ~num_pes:4 () in
  let net = Network.create ~recorder:r ~faults:f () in
  Network.send ~src:0 net ~arrival:2 ~pe:1 (Task.request 7 Demand.Vital);
  ignore (Helpers.deliver net ~now:1);
  Alcotest.(check int) "forward frame delivered" 1
    (List.length (Helpers.deliver net ~now:2));
  (* PE 1 now owes PE 0 an ack; it also has two reverse batches to send *)
  Network.send ~src:1 net ~arrival:4 ~pe:0 (Task.request 8 Demand.Vital);
  Network.send ~src:1 net ~arrival:5 ~pe:0 (Task.request 9 Demand.Vital);
  ignore (Helpers.deliver net ~now:3);
  Alcotest.(check int) "ack rode a reverse data frame" 1 (Network.acks_piggybacked net);
  Alcotest.(check int) "no standalone ack was spent on it" 0 (Network.acks_sent net);
  Alcotest.(check int) "three frames await acks" 3 (Network.unacked net);
  ignore (Helpers.deliver net ~now:4);
  (* the arrival-4 reverse frame carried no ack: the forward frame's
     pending entry must still be there *)
  Alcotest.(check int) "first reverse frame cleared nothing" 3 (Network.unacked net);
  ignore (Helpers.deliver net ~now:5);
  (* the arrival-5 frame (the last of that flush) carried the watermark *)
  Alcotest.(check int) "last reverse frame cleared the forward pending" 2
    (Network.unacked net);
  let piggybacks =
    List.filter_map
      (function
        | { Dgr_obs.Event.kind = Dgr_obs.Event.Cum_ack { src; dst; upto; piggyback }; _ }
          when piggyback -> Some (src, dst, upto)
        | _ -> None)
      (Dgr_obs.Recorder.events r)
  in
  Alcotest.(check (list (triple int int int))) "the one piggyback names the data link"
    [ (0, 1, 0) ] piggybacks;
  settle_acks net;
  Alcotest.(check bool) "reverse frames settled by standalone acks" true
    (Network.acks_sent net > 0);
  Alcotest.(check int) "still only one piggyback" 1 (Network.acks_piggybacked net)

(* Lost acks and reordered redeliveries: every task still arrives exactly
   once (out-of-order frames park in the receiver's backlog, redeliveries
   are suppressed), and because every receipt re-owes the watermark the
   sender's pending set still empties. *)
let test_ack_loss_out_of_order () =
  let f =
    Faults.create
      { Faults.none with
        Faults.drop = 0.4; duplicate = 0.1; delay = 0.5; fault_seed = 17 }
  in
  let net = Network.create ~faults:f () in
  let n = 60 in
  for i = 1 to n do
    Network.send ~src:0 net ~arrival:(2 + (i mod 13)) ~pe:1
      (Task.request i Demand.Vital)
  done;
  let delivered = drain net in
  Alcotest.(check int) "every task delivered despite ack loss" n (List.length delivered);
  let vids =
    List.filter_map
      (function
        | _, Task.Reduction (Task.Request { dst; _ }) -> Some dst
        | _ -> None)
      delivered
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "exactly once each" n (List.length vids);
  Alcotest.(check bool) "frames were dropped and retransmitted" true
    (f.Faults.drops > 0 && f.Faults.retransmits > 0);
  Alcotest.(check bool) "reordered redeliveries were suppressed" true
    (f.Faults.dup_suppressed > 0);
  settle_acks net

(* The per-link sequence space never wraps: at the guard the flush fails
   loudly instead of letting cumulative acks run backwards. *)
let test_seq_wraparound_guard () =
  let f = Faults.create { Faults.none with Faults.stall = 0.5; fault_seed = 1 } in
  let net = Network.create ~faults:f () in
  Network.set_link_seq net ~src:0 ~dst:1 (max_int / 2);
  Network.send ~src:0 net ~arrival:2 ~pe:1 (Task.request 1 Demand.Vital);
  Alcotest.check_raises "flush refuses to assign a wrapped sequence"
    (Invalid_argument "Network.send: per-link sequence space exhausted") (fun () ->
      ignore (Helpers.deliver net ~now:1));
  (* other links are unaffected by the exhausted one *)
  let net2 = Network.create ~faults:(Faults.create { Faults.none with Faults.fault_seed = 1 }) () in
  Network.set_link_seq net2 ~src:0 ~dst:1 ((max_int / 2) - 1);
  Network.send ~src:0 net2 ~arrival:2 ~pe:1 (Task.request 1 Demand.Vital);
  ignore (Helpers.deliver net2 ~now:1);
  Alcotest.(check int) "the last sequence number below the guard still flushes" 1
    (Network.frames_sent net2)

(* --- differential fuzz: faulted concurrent GC vs fault-free STW ------- *)

(* Build the machine's graph and an identical fault-free replica (same
   seed, same spec → same vids), generate an alloc-free mutation schedule
   against the replica, replay it on the machine while the fault plane
   mauls the channel, settle a few clean cycles, then demand the two
   worlds agree exactly. Returns the run's fingerprint — clock, live
   set, fault and marking counters — which must not depend on how many
   domains the machine is sharded across. *)
let run_differential ?(domains = 1) seed =
  let ctx = Printf.sprintf "seed %d (domains %d)" seed domains in
  let num_pes = 1 + (seed mod 4) in
  let spec = Helpers.fuzz_spec seed in
  let ga = Builder.random ~num_pes (Rng.create seed) spec in
  let gb = Builder.random ~num_pes (Rng.create seed) spec in
  let marking =
    if seed land 1 = 0 then Dgr_core.Cycle.Tree else Dgr_core.Cycle.Flood_counters
  in
  let config =
    Engine.Config.make ~num_pes ~seed ~marking ~domains
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 8 })
      ~faults:(Helpers.heavy_faults ~seed ())
      ()
  in
  let e = Engine.create ~config ga (registry ()) in
  let rng = Rng.create ((seed * 7) + 1) in
  let schedule = Helpers.gen_schedule rng gb ~ops:(10 + (seed mod 20)) in
  let mut = Engine.mutator e in
  List.iter
    (fun op ->
      Helpers.apply_mutation mut op;
      for _ = 1 to Rng.int rng 6 do
        Engine.step e
      done)
    schedule;
  (* Settle: enough post-mutation cycles for verdicts to stabilize. *)
  let c = Option.get (Engine.cycle e) in
  let target = Dgr_core.Cycle.cycles_completed c + 6 in
  let guard = ref 0 in
  while Dgr_core.Cycle.cycles_completed c < target && !guard < 400_000 do
    incr guard;
    Engine.step e
  done;
  Alcotest.(check bool) (ctx ^ ": cycles keep completing under faults") true
    (Dgr_core.Cycle.cycles_completed c >= target);
  (* Oracle: halt the fault-free replica and trace it. *)
  let (_ : Dgr_baseline.Stw.report) =
    Dgr_baseline.Stw.collect gb ~purge_tasks:(fun _ -> 0)
  in
  Helpers.check_vid_set (ctx ^ ": live set = fault-free STW live set")
    (Vid.Set.of_list (Graph.live_vids gb))
    (Vid.Set.of_list (Graph.live_vids ga));
  Alcotest.(check (list string)) (ctx ^ ": machine graph validates") []
    (Validate.check ga);
  (* Deadlock verdict: no reduction tasks exist, so DL' = R_v − T = R_v;
     the last settled cycle must flag exactly what the oracle computes on
     the replica. *)
  let oracle = Dgr_analysis.Classify.compute (Snapshot.take gb) ~tasks:[] in
  let report = Option.get (Dgr_core.Cycle.last_report c) in
  Alcotest.(check bool) (ctx ^ ": last cycle ran M_T") true
    report.Dgr_core.Restructure.deadlock_checked;
  Helpers.check_vid_set (ctx ^ ": deadlock verdict = oracle DL'")
    oracle.Dgr_analysis.Classify.deadlocked
    (Vid.Set.of_list report.Dgr_core.Restructure.deadlocked);
  (* The adversary actually showed up, and the reliable layer actually
     recovered: a duplicate's surviving twin can mask a dropped copy (and
     its ack), so runs whose graph mutated down to a sliver may see a
     handful of drops all covered for free — but any loss beyond that
     cover must have been re-earned by the timers. *)
  let f = Option.get (Engine.faults e) in
  Alcotest.(check bool) (ctx ^ ": frames dropped") true (f.Faults.drops > 0);
  Alcotest.(check bool) (ctx ^ ": losses beyond dup cover were retransmitted") true
    (f.Faults.retransmits > 0 || f.Faults.drops <= 2 * f.Faults.dups);
  let m = Engine.metrics e in
  let fp =
    ( Engine.now e, Helpers.live_digest ga, f.Faults.drops, f.Faults.retransmits,
      f.Faults.dup_suppressed, f.Faults.stall_steps, m.Metrics.marking_executed,
      m.Metrics.stale_marks_dropped, m.Metrics.cycles_completed )
  in
  Engine.dispose e;
  fp

let test_differential_block () =
  let base = seed_base () in
  let drops = ref 0 and retx = ref 0 and supp = ref 0 in
  for seed = base to base + 49 do
    let (_, _, d, r, s, _, _, _, _) as fp = run_differential seed in
    drops := !drops + d;
    retx := !retx + r;
    supp := !supp + s;
    (* every 5th seed: the same fault schedule must replay bit-identically
       when the machine is sharded across 2 and 4 OCaml domains (a
       faulted machine steps every shard job inline and never starts a
       worker pool, so this checks the shard ranges, not the pool) *)
    if seed mod 5 = 0 then begin
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: bit-identical at 2 domains" seed)
        true
        (run_differential ~domains:2 seed = fp);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: bit-identical at 4 domains" seed)
        true
        (run_differential ~domains:4 seed = fp)
    end
  done;
  Alcotest.(check bool) "block-wide: drops, retransmits and suppressed dups all nonzero"
    true
    (!drops > 0 && !retx > 0 && !supp > 0)

(* --- crash-schedule fuzz: whole-PE crashes vs fault-free STW ---------- *)

(* The differential harness again, with the crash plane switched on: the
   machine loses whole PEs — pool, in-flight frames, graph segment — on
   seeded schedules whose crash rate, recovery delay ([crash_down_max])
   and overlap (3-4 PE machines at the top rates multi-crash) are keyed
   on the seed, recovers each from its checkpoint, and must still
   converge on exactly the fault-free replica's live set and deadlock
   verdict. Completion-style properties are out of bounds by design:
   reduction tasks lost in a crash are honestly lost, and these
   workloads carry none. Crashes land in the serial crash tick at the
   top of a step and the shards skip down PEs, so the whole fingerprint
   — clock, live set, crash and marking counters — must be
   bit-identical at 1, 2 and 4 domains. *)
let run_crash_differential ?(domains = 1) seed =
  let ctx = Printf.sprintf "crash seed %d (domains %d)" seed domains in
  let num_pes = 2 + (seed mod 3) in
  let spec = Helpers.fuzz_spec seed in
  let ga = Builder.random ~num_pes (Rng.create seed) spec in
  let gb = Builder.random ~num_pes (Rng.create seed) spec in
  let marking =
    if seed land 1 = 0 then Dgr_core.Cycle.Tree else Dgr_core.Cycle.Flood_counters
  in
  let config =
    Engine.Config.make ~num_pes ~seed ~marking ~domains
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 8 })
      ~faults:(Helpers.crash_faults ~seed ())
      ()
  in
  let e = Engine.create ~config ga (registry ()) in
  let rng = Rng.create ((seed * 11) + 5) in
  let schedule = Helpers.gen_schedule rng gb ~ops:(8 + (seed mod 16)) in
  let mut = Engine.mutator e in
  List.iter
    (fun op ->
      Helpers.apply_mutation mut op;
      for _ = 1 to Rng.int rng 6 do
        Engine.step e
      done)
    schedule;
  let c = Option.get (Engine.cycle e) in
  let target = Dgr_core.Cycle.cycles_completed c + 6 in
  let guard = ref 0 in
  while Dgr_core.Cycle.cycles_completed c < target && !guard < 400_000 do
    incr guard;
    Engine.step e
  done;
  Alcotest.(check bool) (ctx ^ ": cycles keep completing under crashes") true
    (Dgr_core.Cycle.cycles_completed c >= target);
  let (_ : Dgr_baseline.Stw.report) =
    Dgr_baseline.Stw.collect gb ~purge_tasks:(fun _ -> 0)
  in
  Helpers.check_vid_set (ctx ^ ": live set = fault-free STW live set")
    (Vid.Set.of_list (Graph.live_vids gb))
    (Vid.Set.of_list (Graph.live_vids ga));
  Alcotest.(check (list string)) (ctx ^ ": machine graph validates") []
    (Validate.check ga);
  let oracle = Dgr_analysis.Classify.compute (Snapshot.take gb) ~tasks:[] in
  let report = Option.get (Dgr_core.Cycle.last_report c) in
  Helpers.check_vid_set (ctx ^ ": deadlock verdict = oracle DL'")
    oracle.Dgr_analysis.Classify.deadlocked
    (Vid.Set.of_list report.Dgr_core.Restructure.deadlocked);
  let m = Engine.metrics e in
  let fp =
    ( Engine.now e, Helpers.live_digest ga, m.Metrics.crashes, m.Metrics.recoveries,
      m.Metrics.crash_rehomed, m.Metrics.crash_lost_tasks,
      m.Metrics.marking_executed, m.Metrics.stale_marks_dropped,
      m.Metrics.cycles_completed )
  in
  Engine.dispose e;
  fp

let test_crash_differential_block () =
  let base = seed_base () in
  let crashes = ref 0 and recoveries = ref 0 and rehomed = ref 0 in
  for seed = base to base + 49 do
    let (_, _, c, r, h, _, _, _, _) as fp = run_crash_differential seed in
    crashes := !crashes + c;
    recoveries := !recoveries + r;
    rehomed := !rehomed + h;
    (* every 5th seed: the same crash schedule must replay bit-identically
       when the machine is sharded across 2 and 4 OCaml domains *)
    if seed mod 5 = 0 then begin
      Alcotest.(check bool)
        (Printf.sprintf "crash seed %d: bit-identical at 2 domains" seed)
        true
        (run_crash_differential ~domains:2 seed = fp);
      Alcotest.(check bool)
        (Printf.sprintf "crash seed %d: bit-identical at 4 domains" seed)
        true
        (run_crash_differential ~domains:4 seed = fp)
    end
  done;
  Alcotest.(check bool)
    "block-wide: crashes, recoveries and re-homings all occurred" true
    (!crashes > 0 && !recoveries > 0 && !rehomed > 0)

(* --- invariants after every step, while the channel misbehaves -------- *)

let check_invariants_now seed e =
  match Engine.cycle e with
  | None -> ()
  | Some c ->
    List.iter
      (fun plane ->
        match Dgr_core.Cycle.run_for_plane c plane with
        | None -> ()
        | Some run -> (
          let pending =
            List.filter_map
              (function
                | Task.Marking m when Task.plane_of_mark m = plane -> Some m
                | _ -> None)
              (Engine.pending_tasks e)
          in
          match Dgr_core.Invariants.check run ~pending with
          | [] -> ()
          | errs ->
            Alcotest.failf "seed %d, step %d, %s plane: %s" seed (Engine.now e)
              (match plane with Plane.MR -> "MR" | Plane.MT -> "MT")
              (String.concat "; " errs)))
      [ Plane.MR; Plane.MT ]

let run_invariant_seed seed =
  let num_pes = 1 + (seed mod 3) in
  let spec = Helpers.fuzz_spec seed in
  let ga = Builder.random ~num_pes (Rng.create seed) spec in
  let gb = Builder.random ~num_pes (Rng.create seed) spec in
  let config =
    Engine.Config.make ~num_pes ~seed ~marking:Dgr_core.Cycle.Tree
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 5 })
      ~faults:(Helpers.heavy_faults ~seed:(seed + 100) ())
      ()
  in
  let e = Engine.create ~config ga (registry ()) in
  (* Every edge-set mutation must come from the vertex's owner (or the
     controller) — checked per mutation, on top of the per-step marking
     invariants below. *)
  Engine.enable_ownership_checks e;
  let rng = Rng.create (seed lxor 0xabcd) in
  let schedule = Helpers.gen_schedule rng gb ~ops:8 in
  let mut = Engine.mutator e in
  List.iter
    (fun op ->
      Helpers.apply_mutation mut op;
      check_invariants_now seed e;
      for _ = 1 to Rng.int rng 5 do
        Engine.step e;
        check_invariants_now seed e
      done)
    schedule;
  let c = Option.get (Engine.cycle e) in
  let target = Dgr_core.Cycle.cycles_completed c + 3 in
  let guard = ref 0 in
  while Dgr_core.Cycle.cycles_completed c < target && !guard < 30_000 do
    incr guard;
    Engine.step e;
    check_invariants_now seed e
  done;
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: settled under per-step checking" seed)
    true
    (Dgr_core.Cycle.cycles_completed c >= target)

let test_invariants_every_step () =
  for seed = 0 to 11 do
    run_invariant_seed seed
  done

(* --- whole programs under heavy faults ------------------------------- *)

let run_program ?(num_pes = 4) ?(marking = Dgr_core.Cycle.Tree) ~fault_seed src =
  let config =
    Engine.Config.make ~num_pes ~marking
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 20 })
      ~faults:(Helpers.heavy_faults ~seed:fault_seed ())
      ()
  in
  let g, templates = Dgr_lang.Compile.load_string ~num_pes src in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps:600_000 e in
  e

let test_programs_survive_faults () =
  List.iter
    (fun (fault_seed, marking) ->
      let e = Dgr_lang.(run_program ~marking ~fault_seed (Prelude.fib 10)) in
      Alcotest.(check bool)
        (Printf.sprintf "fib 10 correct (fault seed %d)" fault_seed)
        true
        (Engine.result e = Some (Label.V_int (Dgr_lang.Prelude.fib_expected 10)));
      Alcotest.(check (list string)) "graph valid" [] (Validate.check (Engine.graph e));
      let f = Option.get (Engine.faults e) in
      Alcotest.(check bool) "channel was actually lossy" true
        (f.Faults.drops > 0 && f.Faults.retransmits > 0))
    [ (1, Dgr_core.Cycle.Tree); (2, Dgr_core.Cycle.Flood_counters) ];
  let e = Dgr_lang.(run_program ~fault_seed:3 (Prelude.sum_range 8)) in
  Alcotest.(check bool) "sum_range 8 correct under faults" true
    (Engine.result e
    = Some (Label.V_int (Dgr_lang.Prelude.sum_range_expected 8)))

let test_deadlock_detected_under_faults () =
  let config =
    Engine.Config.make
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 10 })
      ~faults:(Helpers.heavy_faults ~seed:9 ())
      ()
  in
  let g, templates = Dgr_lang.Compile.load_string Dgr_lang.Prelude.deadlock in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  let found t =
    match Engine.cycle t with
    | Some c -> not (Vid.Set.is_empty (Dgr_core.Cycle.deadlocked_ever c))
    | None -> false
  in
  let (_ : int) = Engine.run ~max_steps:100_000 ~stop:found e in
  Alcotest.(check bool) "deadlock found despite drops and stalls" true (found e)

(* --- determinism: same fault seed, same machine ----------------------- *)

let test_fault_determinism () =
  let fingerprint e =
    let m = Engine.metrics e in
    let f = Option.get (Engine.faults e) in
    ( Engine.now e,
      m.Metrics.reduction_executed,
      ( f.Faults.drops, f.Faults.dups, f.Faults.retransmits,
        f.Faults.dup_suppressed, f.Faults.stalls ) )
  in
  let a = fingerprint (run_program ~fault_seed:42 (Dgr_lang.Prelude.fib 9)) in
  let b = fingerprint (run_program ~fault_seed:42 (Dgr_lang.Prelude.fib 9)) in
  let c = fingerprint (run_program ~fault_seed:43 (Dgr_lang.Prelude.fib 9)) in
  Alcotest.(check bool) "same fault seed: identical run" true (a = b);
  Alcotest.(check bool) "different fault seed: different faults" true (a <> c)

let suite =
  [
    Alcotest.test_case "dedup: duplicate everything" `Quick test_everything_duplicated;
    Alcotest.test_case "retransmit: 50% drop still delivers" `Quick
      test_heavy_drop_still_delivers;
    Alcotest.test_case "purge under faults stops retransmission" `Quick
      test_faulted_purge_stops_retransmission;
    Alcotest.test_case "purge prunes batched frames without double-acking" `Quick
      test_purge_batched_frames;
    Alcotest.test_case "cum ack piggybacks on the last reverse frame" `Quick
      test_piggyback_on_last_reverse_frame;
    Alcotest.test_case "ack loss and reordering still deliver exactly once" `Quick
      test_ack_loss_out_of_order;
    Alcotest.test_case "per-link sequence space cannot wrap" `Quick
      test_seq_wraparound_guard;
    Alcotest.test_case "differential fuzz vs STW oracle (50 seeds)" `Slow
      test_differential_block;
    Alcotest.test_case "crash-schedule fuzz vs STW oracle (50 seeds)" `Slow
      test_crash_differential_block;
    Alcotest.test_case "invariants hold after every step" `Slow
      test_invariants_every_step;
    Alcotest.test_case "programs compute correctly under faults" `Slow
      test_programs_survive_faults;
    Alcotest.test_case "deadlock detection survives faults" `Quick
      test_deadlock_detected_under_faults;
    Alcotest.test_case "fault plane is deterministic per seed" `Quick
      test_fault_determinism;
  ]
