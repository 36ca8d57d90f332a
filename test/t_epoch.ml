(* Epoch-tagged mark waves: decentralized cycle initiation lets cycle
   N+1's mark wave open — and execute — while cycle N's restructure
   pause is still draining, and epoch tags at the dispatch point keep
   debris from superseded waves from ever touching a newer wave's
   planes. These tests pin the overlap down with the event trace and
   exercise the stale-drop path directly. *)
open Dgr_graph
open Dgr_sim
open Dgr_core

let empty_registry = Dgr_reduction.Template.create_registry ()

(* A machine whose restructure pauses are long relative to [idle_gap],
   so every cycle's successor opens mid-drain: a live tree plus a batch
   of garbage rings to keep the collector busy. *)
let overlap_graph () =
  let g = Graph.create ~num_pes:4 () in
  let root = Builder.binary_tree g ~depth:5 in
  Graph.set_root g root;
  for _ = 1 to 40 do
    ignore (Builder.cycle g 25)
  done;
  g

(* [gc_work_factor = 1] stretches each restructure pause well past the
   network latency, so the next wave's seed marks arrive — and execute —
   while the pause is still draining. *)
let overlap_engine ?(domains = 1) ?recorder g =
  let config =
    Engine.Config.make ~num_pes:(Graph.num_pes g)
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 1 })
      ~gc_work_factor:1 ~heap_size:None ()
    |> Engine.Config.with_domains domains
  in
  Engine.create ?recorder ~config g empty_registry

let run_cycles e n =
  let target t =
    match Engine.cycle t with
    | Some c -> Cycle.cycles_completed c >= n
    | None -> true
  in
  let (_ : int) = Engine.run ~max_steps:100_000 ~stop:target e in
  Option.get (Engine.cycle e)

(* The overlap is real: inside at least one restructure-pause window the
   trace shows (a) the next wave's phase opening and (b) mark tasks
   executing — reduction stays stopped, marking does not. *)
let test_next_wave_marks_during_drain () =
  let r = Dgr_obs.Recorder.create ~capacity:100_000 ~num_pes:4 () in
  let g = overlap_graph () in
  let e = overlap_engine ~recorder:r g in
  let (_ : Cycle.t) = run_cycles e 4 in
  let evs = Dgr_obs.Recorder.events r in
  let pauses =
    List.filter_map
      (fun ev ->
        match ev.Dgr_obs.Event.kind with
        | Dgr_obs.Event.Pause
            { steps; reason = Dgr_obs.Event.Restructure_pause } ->
          Some (ev.Dgr_obs.Event.step, steps)
        | _ -> None)
      evs
  in
  Alcotest.(check bool) "restructure paused at least twice" true
    (List.length pauses >= 2);
  let inside (t0, len) t = t > t0 && t <= t0 + len in
  let phase_opened_mid_drain =
    List.exists
      (fun w ->
        List.exists
          (fun ev ->
            match ev.Dgr_obs.Event.kind with
            | Dgr_obs.Event.Phase
                { phase = Dgr_obs.Event.Mark_tasks | Dgr_obs.Event.Mark_root; _ }
              ->
              inside w ev.Dgr_obs.Event.step
            | _ -> false)
          evs)
      pauses
  in
  Alcotest.(check bool) "next wave's phase opens inside a pause window" true
    phase_opened_mid_drain;
  let marks_ran_mid_drain =
    List.exists
      (fun w ->
        List.exists
          (fun ev ->
            match ev.Dgr_obs.Event.kind with
            | Dgr_obs.Event.Execute { kind = Dgr_obs.Event.Mark; _ } ->
              inside w ev.Dgr_obs.Event.step
            | _ -> false)
          evs)
      pauses
  in
  Alcotest.(check bool) "mark tasks execute while the pause drains" true
    marks_ran_mid_drain;
  (* overlap must not compromise the verdicts: the live tree survives,
     the garbage rings are gone, the graph validates *)
  Alcotest.(check int) "live tree intact" 63 (Graph.live_count g);
  Alcotest.(check (list string)) "valid" [] (Validate.check g)

(* Waves are monotone: every phase the controller opens carries a
   strictly larger epoch than the one before it. *)
let test_waves_strictly_increase () =
  let r = Dgr_obs.Recorder.create ~capacity:100_000 ~num_pes:4 () in
  let e = overlap_engine ~recorder:r (overlap_graph ()) in
  let (_ : Cycle.t) = run_cycles e 4 in
  let waves =
    List.filter_map
      (fun ev ->
        match ev.Dgr_obs.Event.kind with
        | Dgr_obs.Event.Phase
            { phase = Dgr_obs.Event.Mark_tasks | Dgr_obs.Event.Mark_root; wave; _ }
          ->
          Some wave
        | _ -> None)
      (Dgr_obs.Recorder.events r)
  in
  Alcotest.(check bool) "several phases observed" true (List.length waves >= 4);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "phase epochs strictly increase" true (monotone waves)

(* A mark carrying a superseded epoch is dropped at dispatch — counted,
   never executed against the current wave's plane. Wave counters start
   at 1, so [ep = 0] can never be current. *)
let test_stale_epoch_mark_dropped () =
  let g = overlap_graph () in
  let e = overlap_engine g in
  let c = Option.get (Engine.cycle e) in
  (* catch the machine with an M_R run open *)
  let guard = ref 0 in
  while Cycle.phase c <> Cycle.Mark_root && !guard < 10_000 do
    incr guard;
    Engine.step e
  done;
  Alcotest.(check bool) "caught an M_R phase" true (Cycle.phase c = Cycle.Mark_root);
  let before = (Engine.metrics e).Metrics.stale_marks_dropped in
  Engine.inject e
    (Dgr_task.Task.Marking
       (Dgr_task.Task.Mark1 { v = Graph.root g; par = Plane.Rootpar; ep = 0 }));
  for _ = 1 to 50 do
    Engine.step e
  done;
  Alcotest.(check bool) "stale mark counted at dispatch" true
    ((Engine.metrics e).Metrics.stale_marks_dropped > before);
  (* and the machine shrugs it off: cycles keep completing, verdicts hold *)
  let done_before = Cycle.cycles_completed c in
  let (_ : Cycle.t) = run_cycles e (done_before + 2) in
  Alcotest.(check int) "live tree intact" 63 (Graph.live_count g);
  Alcotest.(check (list string)) "valid" [] (Validate.check g)

(* A crash mid-wave restarts the phase on a fresh epoch without purging
   the machine: the dead wave's surviving marks are dropped at dispatch
   by their stale tags, and the restarted wave still converges on the
   right verdict. *)
let test_crash_mid_wave_overlapping_epochs () =
  let g = overlap_graph () in
  let e = overlap_engine g in
  let c = Option.get (Engine.cycle e) in
  let guard = ref 0 in
  while
    (Cycle.phase c = Cycle.Idle
    || not
         (List.exists Dgr_task.Task.is_marking (Engine.pending_tasks e)))
    && !guard < 10_000
  do
    incr guard;
    Engine.step e
  done;
  Alcotest.(check bool) "caught a wave with marks in flight" true
    (Cycle.phase c <> Cycle.Idle);
  Engine.inject_crash e ~pe:1 ~down:8;
  let done_before = Cycle.cycles_completed c in
  let (_ : Cycle.t) = run_cycles e (done_before + 3) in
  let m = Engine.metrics e in
  Alcotest.(check bool) "dead wave's debris dropped by epoch" true
    (m.Metrics.stale_marks_dropped > 0);
  Alcotest.(check int) "crash recorded" 1 m.Metrics.crashes;
  Alcotest.(check int) "live tree intact" 63 (Graph.live_count g);
  Alcotest.(check (list string)) "valid" [] (Validate.check g)

(* The whole overlapping-epoch machine is bit-deterministic across
   domain counts: same clock, same live set, same stale-drop and
   marking counters at 1, 2 and 4 domains. *)
let test_overlap_bit_identical_across_domains () =
  let fingerprint domains =
    let g = overlap_graph () in
    let e = overlap_engine ~domains g in
    let (_ : Cycle.t) = run_cycles e 5 in
    let m = Engine.metrics e in
    let live = List.sort compare (Graph.live_vids g) in
    ( Engine.now e, live, m.Metrics.marking_executed,
      m.Metrics.stale_marks_dropped, m.Metrics.cycles_completed )
  in
  let fp1 = fingerprint 1 in
  Alcotest.(check bool) "2 domains = 1 domain" true (fingerprint 2 = fp1);
  Alcotest.(check bool) "4 domains = 1 domain" true (fingerprint 4 = fp1)

let suite =
  [
    Alcotest.test_case "next wave marks while the pause drains" `Quick
      test_next_wave_marks_during_drain;
    Alcotest.test_case "phase epochs strictly increase" `Quick
      test_waves_strictly_increase;
    Alcotest.test_case "stale-epoch mark dropped at dispatch" `Quick
      test_stale_epoch_mark_dropped;
    Alcotest.test_case "crash mid-wave: stale epochs drop, wave restarts" `Quick
      test_crash_mid_wave_overlapping_epochs;
    Alcotest.test_case "overlap bit-identical at 1/2/4 domains" `Quick
      test_overlap_bit_identical_across_domains;
  ]
