(* The observability layer: ring-buffer recorder, samplers, exporters,
   and the engine's trace determinism guarantee. *)
open Dgr_obs
open Dgr_sim

let exec pe vid = Event.Execute { kind = Event.Mark; pe; vid; lin = -1 }

(* --- recorder ------------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Recorder.create ~capacity:4 ~num_pes:1 () in
  for i = 0 to 9 do
    Recorder.set_now r i;
    Recorder.emit r (exec 0 i)
  done;
  Alcotest.(check int) "length" 4 (Recorder.length r);
  Alcotest.(check int) "emitted" 10 (Recorder.emitted r);
  Alcotest.(check int) "dropped" 6 (Recorder.dropped r);
  (* The survivors are the newest four, oldest first, seq preserved. *)
  let evs = Recorder.events r in
  Alcotest.(check (list int)) "seqs" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Event.t) -> e.Event.seq) evs);
  Alcotest.(check (list int)) "steps" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Event.t) -> e.Event.step) evs)

let test_event_ordering () =
  let r = Recorder.create ~num_pes:2 () in
  Recorder.set_now r 5;
  Recorder.emit r (Event.Phase { phase = Event.Mark_root; cycle = 0; wave = 1 });
  Recorder.emit r (exec 0 1);
  Recorder.set_now r 6;
  Recorder.emit r (exec 1 2);
  let evs = Recorder.events r in
  Alcotest.(check (list int)) "seq monotonic" [ 0; 1; 2 ]
    (List.map (fun (e : Event.t) -> e.Event.seq) evs);
  Alcotest.(check (list int)) "stamped with now" [ 5; 5; 6 ]
    (List.map (fun (e : Event.t) -> e.Event.step) evs);
  Alcotest.(check int) "nothing dropped" 0 (Recorder.dropped r)

let test_sampler () =
  let r = Recorder.create ~sample_every:2 ~num_pes:2 () in
  for step = 0 to 5 do
    Recorder.set_now r step;
    (* one marking execution on PE 0 per step, reduction on PE 1 at step 3 *)
    Recorder.emit r (exec 0 step);
    if step = 3 then
      Recorder.emit r (Event.Execute { kind = Event.Request; pe = 1; vid = 9; lin = -1 });
    Recorder.tick r ~live:(100 + step) ~in_flight:step ~headroom:(-1)
      ~pool_depth:[| step; 2 * step |]
  done;
  let samples = Recorder.samples r in
  Alcotest.(check (list int)) "sampled on the period" [ 0; 2; 4 ]
    (List.map (fun (s : Recorder.sample) -> s.Recorder.s_step) samples);
  let s4 = List.nth samples 2 in
  Alcotest.(check int) "live" 104 s4.Recorder.s_live;
  Alcotest.(check (list int)) "pool depth" [ 4; 8 ]
    (Array.to_list s4.Recorder.s_pool_depth);
  (* steps 3 and 4 elapsed since the sample at step 2 *)
  Alcotest.(check (list int)) "marking delta" [ 2; 0 ]
    (Array.to_list s4.Recorder.s_marking);
  Alcotest.(check (list int)) "reduction delta resets" [ 0; 1 ]
    (Array.to_list s4.Recorder.s_reduction)

(* --- exporters ------------------------------------------------------ *)

let small_recorder () =
  let r = Recorder.create ~sample_every:1 ~num_pes:2 () in
  Recorder.set_now r 0;
  Recorder.emit r (Event.Phase { phase = Event.Mark_root; cycle = 0; wave = 1 });
  Recorder.emit r
    (Event.Send
       { kind = Event.Request; pe = 1; vid = 3; arrival = 4; remote = true; lin = 3 });
  Recorder.tick r ~live:2 ~in_flight:1 ~headroom:(-1) ~pool_depth:[| 1; 0 |];
  Recorder.set_now r 4;
  Recorder.emit r (Event.Deliver { kind = Event.Request; pe = 1; vid = 3; lin = 3 });
  Recorder.emit r (Event.Execute { kind = Event.Request; pe = 1; vid = 3; lin = 3 });
  Recorder.emit r (Event.Phase { phase = Event.Idle; cycle = 0; wave = 1 });
  Recorder.emit r Event.Finished;
  Recorder.tick r ~live:2 ~in_flight:0 ~headroom:(-1) ~pool_depth:[| 0; 0 |];
  r

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: expected to find %S" what needle

let test_chrome_trace_shape () =
  let s = Export.chrome_trace (small_recorder ()) in
  check_contains "header" "{\"traceEvents\":[" s;
  (* per-PE tracks + the marking plane track *)
  check_contains "pe track" "\"name\":\"PE 0\"" s;
  check_contains "marking track" "\"name\":\"marking\"" s;
  (* the phase pair becomes one complete span of duration 4 *)
  check_contains "phase span" "\"name\":\"M_R\",\"ph\":\"X\",\"pid\":0,\"tid\":2,\"ts\":0,\"dur\":4" s;
  check_contains "send instant" "\"name\":\"send:request\"" s;
  check_contains "counter" "\"name\":\"pool_depth\",\"ph\":\"C\"" s;
  Alcotest.(check string) "closed" "]}\n" (String.sub s (String.length s - 3) 3)

let test_timeseries_csv_shape () =
  let s = Export.timeseries_csv (small_recorder ()) in
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "header + 2 samples x 2 PEs" 5 (List.length lines);
  Alcotest.(check string) "header"
    "step,pe,pool_depth,marking,reduction,live,in_flight,headroom,drops,dups,retransmits,stalls,frames,batched_tasks,acks_piggybacked"
    (List.hd lines);
  Alcotest.(check string) "row" "4,1,0,0,1,2,0,-1,0,0,0,0,0,0,0" (List.nth lines 4)

(* --- end-to-end determinism ---------------------------------------- *)

let traced_run ?(seed = 11) () =
  let config =
    Engine.Config.make ~num_pes:4 ~heap_size:(Some 9_000) ~jitter:0.3 ~seed
      ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 20 })
      ()
  in
  let g, templates =
    Dgr_lang.Compile.load_string
      ~num_pes:(Engine.Config.num_pes config)
      (Dgr_lang.Prelude.fib 9)
  in
  let r =
    Recorder.create ~sample_every:10 ~num_pes:(Engine.Config.num_pes config) ()
  in
  let e = Engine.create ~recorder:r ~config g templates in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps:100_000 e in
  Alcotest.(check bool) "completed" true (Engine.finished e);
  (e, r)

let test_same_seed_same_trace () =
  let _, r1 = traced_run () in
  let _, r2 = traced_run () in
  Alcotest.(check string) "chrome trace bytes"
    (Export.chrome_trace r1) (Export.chrome_trace r2);
  Alcotest.(check string) "timeseries bytes"
    (Export.timeseries_csv r1) (Export.timeseries_csv r2);
  Alcotest.(check string) "timeseries json bytes"
    (Export.timeseries_json r1) (Export.timeseries_json r2)

let test_trace_covers_machine () =
  let e, r = traced_run () in
  let evs = Recorder.events r in
  let has p = List.exists (fun (ev : Event.t) -> p ev.Event.kind) evs in
  Alcotest.(check bool) "sends" true
    (has (function Event.Send _ -> true | _ -> false));
  Alcotest.(check bool) "delivers" true
    (has (function Event.Deliver _ -> true | _ -> false));
  Alcotest.(check bool) "executes" true
    (has (function Event.Execute _ -> true | _ -> false));
  Alcotest.(check bool) "phases" true
    (has (function Event.Phase _ -> true | _ -> false));
  Alcotest.(check bool) "finished" true
    (has (function Event.Finished -> true | _ -> false));
  (* event steps never exceed the clock, and seq is strictly increasing *)
  let rec monotonic = function
    | (a : Event.t) :: (b : Event.t) :: rest ->
      a.Event.seq < b.Event.seq && a.Event.step <= b.Event.step && monotonic (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "ordered" true (monotonic evs);
  List.iter
    (fun (ev : Event.t) ->
      if ev.Event.step > Engine.now e then
        Alcotest.failf "event stamped past the clock: %a" Event.pp ev)
    evs

let test_metrics_json () =
  let e, _ = traced_run () in
  let s = Metrics.to_json (Engine.metrics e) in
  check_contains "object"
    (Printf.sprintf "{\"schema_version\":%d,\"steps\":" Metrics.schema_version)
    s;
  check_contains "pauses stats" "\"pauses\":{\"count\":" s;
  check_contains "completion" "\"completion_step\":" s;
  let e2, _ = traced_run () in
  Alcotest.(check string) "byte-deterministic" s (Metrics.to_json (Engine.metrics e2))

let test_network_entries_sorted () =
  (* The heap's internal layout depends on insertion order (jittered
     arrivals insert out of order); the external view must still be
     (arrival, send-order)-sorted. *)
  let net = Network.create () in
  let g = Dgr_graph.Graph.create ~num_pes:2 () in
  let root = Dgr_graph.Builder.add_root g Dgr_graph.Label.Ind [] in
  let task =
    Dgr_task.Task.Reduction
      (Dgr_task.Task.Request { src = Some root; dst = root; demand = Dgr_graph.Demand.Vital; key = 0 })
  in
  let rng = Dgr_util.Rng.create 5 in
  for _ = 1 to 40 do
    Network.send net ~arrival:(Dgr_util.Rng.int rng 25) ~pe:0 task
  done;
  let arrivals = List.map fst (Network.entries net) in
  let rec sorted = function
    | a :: b :: rest -> a <= b && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "entries sorted by arrival" true (sorted arrivals);
  Alcotest.(check int) "all present" 40 (List.length arrivals)

let suite =
  [
    Alcotest.test_case "ring wraparound keeps the newest events" `Quick test_ring_wraparound;
    Alcotest.test_case "events are ordered and clock-stamped" `Quick test_event_ordering;
    Alcotest.test_case "sampler fires on the period and resets deltas" `Quick test_sampler;
    Alcotest.test_case "chrome trace has tracks, spans and counters" `Quick
      test_chrome_trace_shape;
    Alcotest.test_case "timeseries CSV is long-form per (sample, PE)" `Quick
      test_timeseries_csv_shape;
    Alcotest.test_case "same seed, same trace bytes" `Quick test_same_seed_same_trace;
    Alcotest.test_case "a traced run covers every event family" `Quick
      test_trace_covers_machine;
    Alcotest.test_case "metrics JSON is deterministic" `Quick test_metrics_json;
    Alcotest.test_case "network entries sorted under jitter" `Quick
      test_network_entries_sorted;
  ]
