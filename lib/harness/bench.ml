open Dgr_graph
open Dgr_sim
open Dgr_lang

(* v5: rows gained the crash-plane columns "crashes", "recoveries" and
   "crash_rehomed" (whole-PE crashes with checkpointed re-homing; all
   zero for crash-free scenarios). v4 added the end-to-end latency
   percentiles "lat_p50".."lat_p999" (in steps, from the lineage
   histograms — deterministic) and the wall-measured "serial_fraction"
   (zeroed in deterministic mode). v3 added the transport columns
   "frames_sent", "acks_sent", "marks_coalesced" and "tasks_per_frame",
   and the document a top-level "batch" (whether frame batching was on).
   v2 added per-row "domains" and "speedup_vs_seq" and the top-level
   "domains". *)
let schema_version = 5

(* ------------------------------------------------------------------ *)
(* The macro suite.                                                    *)
(* ------------------------------------------------------------------ *)

type workload =
  | Program of string
      (** surface-language source; the root's value is demanded *)
  | Storm of Builder.random_spec
      (** a rooted random operator graph (no templates): demanding the
          root floods requests through it while the collector cycles
          over a large live set — the marking/network hot path with
          almost no useful reduction *)

type scenario = {
  s_name : string;
  s_smoke : bool;
  s_workload : workload;
  s_config : Engine.config;
  s_max_steps : int;
  s_endless : bool;
      (** ignore completion and run the full step budget (concurrent
          collectors cycle endlessly; other regimes still stop at
          quiescence) *)
}

let conc ?(deadlock_every = 1) ?(idle_gap = 30) () =
  Engine.Concurrent { deadlock_every; idle_gap }

let storm_spec n =
  {
    Builder.live = n;
    garbage = n / 4;
    free_pool = 64;
    avg_degree = 2.5;
    cycle_bias = 0.15;
  }

let storm ~name ~smoke ?(marking = Dgr_core.Cycle.Tree) ?(gc = conc ()) ~live
    ~max_steps () =
  {
    s_name = name;
    s_smoke = smoke;
    s_workload = Storm (storm_spec live);
    s_config =
      Engine.Config.make ~num_pes:8 ~gc ~heap_size:None ~marking ~seed:11 ();
    s_max_steps = max_steps;
    s_endless = true;
  }

let program ~name ~smoke ?(num_pes = 4) ?(gc = conc ~idle_gap:50 ())
    ?(jitter = 0.0) ?(seed = 0) ?(faults = Faults.none) ~max_steps source =
  {
    s_name = name;
    s_smoke = smoke;
    s_workload = Program source;
    s_config = Engine.Config.make ~num_pes ~gc ~jitter ~seed ~faults ();
    s_max_steps = max_steps;
    s_endless = false;
  }

let light_faults =
  {
    Faults.none with
    Faults.drop = 0.05;
    duplicate = 0.02;
    delay = 0.05;
    stall = 0.01;
    fault_seed = 7;
  }

(* Lossy channel plus whole-PE crashes: in-flight and pooled tasks die
   with a crashed PE, so completion is never expected — the scenario
   measures survival (recovery latency, re-homing volume, marking
   restarts), not the answer. *)
let crash_faults =
  {
    Faults.none with
    Faults.drop = 0.02;
    duplicate = 0.01;
    delay = 0.02;
    stall = 0.01;
    crash = 0.004;
    crash_down_max = 40;
    fault_seed = 13;
  }

(* The smoke subset (s_smoke = true) is the cheap half of the suite at
   the SAME sizes and configs — a subset, not a miniature — so smoke
   rates compare directly against a full-run baseline. *)
let suite =
  [
    storm ~name:"storm-tree-8k" ~smoke:true ~live:8_000 ~max_steps:2_000 ();
    storm ~name:"storm-flood-8k" ~smoke:true ~live:8_000 ~max_steps:2_000
      ~marking:Dgr_core.Cycle.Flood_counters ();
    storm ~name:"storm-tree-50k" ~smoke:false ~live:50_000 ~max_steps:3_000 ();
    storm ~name:"storm-stw-50k" ~smoke:false ~live:50_000 ~max_steps:3_000
      ~gc:(Engine.Stop_the_world { every = 200 }) ();
    program ~name:"fib-12-concurrent" ~smoke:true ~max_steps:200_000
      (Prelude.fib 12);
    program ~name:"fib-14-concurrent" ~smoke:false ~num_pes:8
      ~max_steps:400_000 (Prelude.fib 14);
    program ~name:"fib-12-stw" ~smoke:true
      ~gc:(Engine.Stop_the_world { every = 400 }) ~max_steps:200_000
      (Prelude.fib 12);
    program ~name:"fib-12-refcount" ~smoke:true ~gc:Engine.Refcount
      ~max_steps:200_000 (Prelude.fib 12);
    program ~name:"sumrange-18-concurrent" ~smoke:false ~max_steps:200_000
      (Prelude.sum_range 18);
    program ~name:"specdeep-concurrent" ~smoke:false
      ~gc:(conc ~idle_gap:20 ()) ~max_steps:60_000
      (Prelude.speculative_deep 600 10);
    program ~name:"fib-12-faults" ~smoke:true ~faults:light_faults
      ~max_steps:200_000 (Prelude.fib 12);
    program ~name:"fib-12-crash" ~smoke:true ~faults:crash_faults
      ~max_steps:20_000 (Prelude.fib 12);
    program ~name:"fib-12-jitter" ~smoke:false ~jitter:0.3 ~seed:3
      ~max_steps:200_000 (Prelude.fib 12);
  ]

let scenario_names ~smoke =
  List.filter_map
    (fun s -> if (not smoke) || s.s_smoke then Some s.s_name else None)
    suite

(* ------------------------------------------------------------------ *)
(* Running and measuring.                                              *)
(* ------------------------------------------------------------------ *)

type row = {
  name : string;
  seed : int;
  domains : int;  (** shard count the scenario ran at *)
  steps : int;
  tasks : int;
  messages : int;
  cycles : int;
  avg_cycle_len : float;
  live : int;
  completed : bool;
  frames_sent : int;  (** data frames flushed by the transport *)
  acks_sent : int;  (** standalone cumulative-ack frames *)
  marks_coalesced : int;  (** always 0; see [Metrics.marks_coalesced] *)
  crashes : int;  (** whole-PE crashes begun *)
  recoveries : int;  (** crashed PEs that came back up *)
  crash_rehomed : int;  (** live vertices moved off crashed PEs *)
  tasks_per_frame : float;
      (** tasks carried / frames sent — the frame-count reduction
          batching bought over one-task-per-frame transport *)
  lat_p50 : int;  (** end-to-end task latency percentiles, in steps *)
  lat_p90 : int;
  lat_p99 : int;
  lat_p999 : int;
  serial_fraction : float;
      (** measured Amdahl serial fraction (wall-clock; 0.0 when
          deterministic) *)
  digest : string;
  wall_ns : int64;
  minor_words : float;
  speedup_vs_seq : float;
      (** steps/sec vs the same scenario at [domains = 1]; [0.0] when
          unknown (deterministic runs, or no sequential row to compare) *)
}

(* Everything a run's semantics determine, in one string: if two engines
   produce equal signatures they finished in the same state having done
   the same work. The digest of this is the row's [digest] field and what
   the CI determinism check compares. *)
let signature e =
  let m = Engine.metrics e in
  let live =
    String.concat "," (List.map Vid.to_string (Graph.live_vids (Engine.graph e)))
  in
  let deadlocked =
    match Engine.cycle e with
    | Some c ->
      String.concat ","
        (List.map Vid.to_string
           (Vid.Set.elements (Dgr_core.Cycle.deadlocked_ever c)))
    | None -> ""
  in
  let result =
    match Engine.result e with
    | Some v -> Format.asprintf "%a" Label.pp_value v
    | None -> "-"
  in
  Printf.sprintf "%d|%s|%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d" (Engine.now e) live
    deadlocked result m.Metrics.reduction_executed m.Metrics.marking_executed
    m.Metrics.remote_messages m.Metrics.local_messages m.Metrics.tasks_purged
    m.Metrics.cycles_completed m.Metrics.stw_collections m.Metrics.msgs_dropped
    m.Metrics.retransmits m.Metrics.stalls

let build_engine ?(domains = 1) ?(batch = true) s =
  let config =
    s.s_config |> Engine.Config.with_domains domains |> Engine.Config.with_batch batch
  in
  let num_pes = Engine.Config.num_pes config in
  let g, templates =
    match s.s_workload with
    | Program source -> Compile.load_string ~num_pes source
    | Storm spec ->
      let rng = Dgr_util.Rng.create (Engine.Config.seed config) in
      (Builder.random ~num_pes rng spec, Dgr_reduction.Template.create_registry ())
  in
  Engine.create ~config g templates

(* Demand alone dies out quickly on a placeholder graph; spraying
   requests over every 8th live vertex keeps the pools busy (and a
   stop-the-world machine non-quiescent) while the collector works. *)
let prime e s =
  Engine.inject_root_demand e;
  match s.s_workload with
  | Storm _ ->
    List.iteri
      (fun i v ->
        if i mod 8 = 0 then Engine.inject e (Dgr_task.Task.request v Demand.Eager))
      (Graph.live_vids (Engine.graph e))
  | Program _ -> ()

let run_scenario ?(domains = 1) ?(batch = true) ~deterministic s =
  let e = build_engine ~domains ~batch s in
  prime e s;
  let mw0 = if deterministic then 0.0 else Gc.minor_words () in
  let t0 = if deterministic then 0.0 else Unix.gettimeofday () in
  let steps =
    if s.s_endless then Engine.run ~max_steps:s.s_max_steps ~stop:(fun _ -> false) e
    else Engine.run ~max_steps:s.s_max_steps e
  in
  let wall_ns =
    if deterministic then 0L
    else Int64.of_float ((Unix.gettimeofday () -. t0) *. 1e9)
  in
  let minor_words = if deterministic then 0.0 else Gc.minor_words () -. mw0 in
  let m = Engine.metrics e in
  let cycles = m.Metrics.cycles_completed in
  let row_result =
  {
    name = s.s_name;
    seed = Engine.Config.seed s.s_config;
    domains = Engine.Config.domains (Engine.config e);
    steps;
    tasks = m.Metrics.reduction_executed + m.Metrics.marking_executed;
    messages = m.Metrics.remote_messages + m.Metrics.local_messages;
    cycles;
    avg_cycle_len =
      (if cycles = 0 then 0.0 else float_of_int steps /. float_of_int cycles);
    live = Graph.live_count (Engine.graph e);
    completed = Engine.result e <> None;
    frames_sent = m.Metrics.frames_sent;
    acks_sent = m.Metrics.acks_sent;
    marks_coalesced = m.Metrics.marks_coalesced;
    crashes = m.Metrics.crashes;
    recoveries = m.Metrics.recoveries;
    crash_rehomed = m.Metrics.crash_rehomed;
    tasks_per_frame =
      (if m.Metrics.frames_sent = 0 then 0.0
       else float_of_int m.Metrics.tasks_sent /. float_of_int m.Metrics.frames_sent);
    lat_p50 = Dgr_obs.Hist.percentile m.Metrics.lat_e2e 50.0;
    lat_p90 = Dgr_obs.Hist.percentile m.Metrics.lat_e2e 90.0;
    lat_p99 = Dgr_obs.Hist.percentile m.Metrics.lat_e2e 99.0;
    lat_p999 = Dgr_obs.Hist.percentile m.Metrics.lat_e2e 99.9;
    serial_fraction =
      (if deterministic then 0.0
       else Dgr_sim.Profile.serial_fraction (Engine.profile e));
    digest = Digest.to_hex (Digest.string (signature e));
    wall_ns;
    minor_words;
    speedup_vs_seq = 0.0;
  }
  in
  Engine.dispose e;
  row_result

let steps_per_sec r =
  if r.wall_ns = 0L then 0.0
  else float_of_int r.steps /. (Int64.to_float r.wall_ns /. 1e9)

(* Fill [speedup_vs_seq] in [rows] from a matching sequential run of the
   same scenarios. The digests must agree — the determinism contract —
   so the speedup compares identical work. *)
let with_speedups ~seq rows =
  List.map
    (fun r ->
      match List.find_opt (fun s -> s.name = r.name) seq with
      | Some s when steps_per_sec s > 0.0 && s.digest = r.digest ->
        { r with speedup_vs_seq = steps_per_sec r /. steps_per_sec s }
      | Some _ | None -> r)
    rows

let speedup_table ~seq ~par =
  List.filter_map
    (fun r ->
      match List.find_opt (fun s -> s.name = r.name) seq with
      | Some s -> Some (r.name, steps_per_sec s, steps_per_sec r, r.digest = s.digest)
      | None -> None)
    (with_speedups ~seq par)

let run_suite ?(domains = 1) ?(batch = true) ?only ~smoke ~deterministic () =
  let selected =
    match only with
    | None -> List.filter (fun s -> (not smoke) || s.s_smoke) suite
    | Some names ->
      List.map
        (fun n ->
          match List.find_opt (fun s -> s.s_name = n) suite with
          | Some s -> s
          | None ->
            invalid_arg
              (Printf.sprintf "Bench.run_suite: unknown scenario %S (have: %s)" n
                 (String.concat ", " (scenario_names ~smoke:false))))
        names
  in
  List.map (run_scenario ~domains ~batch ~deterministic) selected

(* Build, prime and run one named suite scenario, returning the engine
   itself (not a row) so a post-run analyzer can walk its lineage store,
   histograms and profile. The caller owns the engine: dispose it. *)
let run_for_report ?(domains = 1) ?(batch = true) name =
  match List.find_opt (fun s -> s.s_name = name) suite with
  | None ->
    invalid_arg
      (Printf.sprintf "Bench.run_for_report: unknown scenario %S (have: %s)" name
         (String.concat ", " (scenario_names ~smoke:false)))
  | Some s ->
    let e = build_engine ~domains ~batch s in
    prime e s;
    let (_ : int) =
      if s.s_endless then Engine.run ~max_steps:s.s_max_steps ~stop:(fun _ -> false) e
      else Engine.run ~max_steps:s.s_max_steps e
    in
    e

(* ------------------------------------------------------------------ *)
(* BENCH.json.                                                         *)
(* ------------------------------------------------------------------ *)

let row_json r =
  let secs = Int64.to_float r.wall_ns /. 1e9 in
  let rate n = if r.wall_ns = 0L then 0.0 else float_of_int n /. secs in
  let mwps =
    if r.wall_ns = 0L || r.steps = 0 then 0.0
    else r.minor_words /. float_of_int r.steps
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"seed\":%d,\"domains\":%d,\"steps\":%d,\"tasks\":%d,\"messages\":%d,\"cycles\":%d,\"avg_cycle_len\":%.2f,\"live\":%d,\"completed\":%b,\"frames_sent\":%d,\"acks_sent\":%d,\"marks_coalesced\":%d,\"tasks_per_frame\":%.2f,\"crashes\":%d,\"recoveries\":%d,\"crash_rehomed\":%d,\"lat_p50\":%d,\"lat_p90\":%d,\"lat_p99\":%d,\"lat_p999\":%d,\"serial_fraction\":%.4f,\"digest\":\"%s\",\"wall_ns\":%Ld,\"steps_per_sec\":%.1f,\"tasks_per_sec\":%.1f,\"msgs_per_sec\":%.1f,\"minor_words_per_step\":%.2f,\"speedup_vs_seq\":%.2f}"
    r.name r.seed r.domains r.steps r.tasks r.messages r.cycles r.avg_cycle_len
    r.live r.completed r.frames_sent r.acks_sent r.marks_coalesced
    r.tasks_per_frame r.crashes r.recoveries r.crash_rehomed r.lat_p50 r.lat_p90
    r.lat_p99 r.lat_p999 r.serial_fraction
    r.digest r.wall_ns (rate r.steps) (rate r.tasks)
    (rate r.messages) mwps r.speedup_vs_seq

let to_json ?(batch = true) ~mode ~deterministic rows =
  let domains = List.fold_left (fun m r -> Int.max m r.domains) 1 rows in
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "{\"schema_version\":%d,\"bench\":\"dgr-macro\",\"mode\":\"%s\",\"deterministic\":%b,\"batch\":%b,\"domains\":%d,\"scenarios\":[\n"
    schema_version mode deterministic batch domains;
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (row_json r))
    rows;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Reading a baseline back.                                            *)
(*                                                                     *)
(* We only ever parse documents this module wrote (the committed        *)
(* baseline), so a targeted scanner beats a JSON dependency: pull out   *)
(* each scenario's "name" and "steps_per_sec" by key, ignore the rest.  *)
(* ------------------------------------------------------------------ *)

let find_from hay needle start =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then None
    else if String.sub hay i n = needle then Some (i + n)
    else go (i + 1)
  in
  go start

(* [(name, value)] per scenario: after each "name" string, scan forward
   for [key] and read the number behind it. *)
let scenario_floats json ~key =
  let key = Printf.sprintf "\"%s\":" key in
  let rec collect acc pos =
    match find_from json "\"name\":\"" pos with
    | None -> List.rev acc
    | Some start -> (
      match String.index_from_opt json start '"' with
      | None -> List.rev acc
      | Some close -> (
        let name = String.sub json start (close - start) in
        match find_from json key close with
        | None -> List.rev acc
        | Some vstart ->
          let vend = ref vstart in
          let len = String.length json in
          while
            !vend < len
            && (match json.[!vend] with
               | '0' .. '9' | '.' | '-' | 'e' | '+' -> true
               | _ -> false)
          do
            incr vend
          done;
          let v =
            try float_of_string (String.sub json vstart (!vend - vstart))
            with _ -> 0.0
          in
          collect ((name, v) :: acc) !vend))
  in
  collect [] 0

let scenario_rates json =
  (match find_from json "\"bench\":\"dgr-macro\"" 0 with
  | Some _ -> ()
  | None -> failwith "Bench.scenario_rates: not a dgr-macro BENCH.json");
  scenario_floats json ~key:"steps_per_sec"

let regressions ~threshold ~baseline rows =
  let base = scenario_rates baseline in
  List.filter_map
    (fun r ->
      match List.assoc_opt r.name base with
      | Some base_sps when base_sps > 0.0 ->
        let cur =
          if r.wall_ns = 0L then 0.0
          else float_of_int r.steps /. (Int64.to_float r.wall_ns /. 1e9)
        in
        if cur < (1.0 -. threshold) *. base_sps then Some (r.name, base_sps, cur)
        else None
      | Some _ | None -> None)
    rows

(* The allocation gate. Unlike steps/sec, minor words per step is
   near-deterministic — same binary, same workload, same allocation —
   so the budget file commits an absolute ceiling per scenario and the
   gate is a hard comparison, not a noise-tolerant ratio. *)

let scenario_alloc_budgets json =
  (match find_from json "\"bench\":\"dgr-alloc-budget\"" 0 with
  | Some _ -> ()
  | None ->
    failwith "Bench.scenario_alloc_budgets: not a dgr-alloc-budget file");
  scenario_floats json ~key:"budget_minor_words_per_step"

(* A/B diff of two committed BENCH.json files, one row per scenario:
   throughput, serial fraction, allocation rate, and the latency
   percentile shifts. Reuses the targeted scanner — both documents were
   written by [to_json] above. Scenarios present in only one file are
   listed with the side they're missing from. *)
let compare_table ~baseline ~candidate =
  let check json which =
    match find_from json "\"bench\":\"dgr-macro\"" 0 with
    | Some _ -> ()
    | None ->
      failwith (Printf.sprintf "Bench.compare_table: %s is not a dgr-macro BENCH.json" which)
  in
  check baseline "baseline";
  check candidate "candidate";
  let keyed json k = scenario_floats json ~key:k in
  let a_sps = keyed baseline "steps_per_sec" in
  let b_sps = keyed candidate "steps_per_sec" in
  let a_serial = keyed baseline "serial_fraction" in
  let b_serial = keyed candidate "serial_fraction" in
  let a_mw = keyed baseline "minor_words_per_step" in
  let b_mw = keyed candidate "minor_words_per_step" in
  let lat p json = keyed json (Printf.sprintf "lat_p%s" p) in
  let a_lat = List.map (fun p -> (p, lat p baseline)) [ "50"; "90"; "99"; "999" ] in
  let b_lat = List.map (fun p -> (p, lat p candidate)) [ "50"; "90"; "99"; "999" ] in
  let b_buf = Buffer.create 1024 in
  Printf.bprintf b_buf "%-24s %22s %15s %19s  %s\n" "scenario" "steps/sec"
    "serial" "minor words/step" "latency p50/p90/p99/p999";
  let get l name = List.assoc_opt name l in
  let names =
    List.map fst a_sps
    @ List.filter (fun n -> not (List.mem_assoc n a_sps)) (List.map fst b_sps)
  in
  List.iter
    (fun name ->
      match (get a_sps name, get b_sps name) with
      | Some _, None -> Printf.bprintf b_buf "%-24s (missing from candidate)\n" name
      | None, Some _ -> Printf.bprintf b_buf "%-24s (missing from baseline)\n" name
      | None, None -> ()
      | Some sa, Some sb ->
        let delta =
          if sa > 0.0 then Printf.sprintf "%+.1f%%" (100.0 *. (sb -. sa) /. sa)
          else "n/a"
        in
        let f l = Option.value (get l name) ~default:0.0 in
        let mwa = f a_mw and mwb = f b_mw in
        let mw_delta =
          if mwa > 0.0 then Printf.sprintf "%+.0f%%" (100.0 *. (mwb -. mwa) /. mwa)
          else "n/a"
        in
        let lat_cell =
          String.concat " "
            (List.map2
               (fun (p, la) (_, lb) ->
                 let va = int_of_float (Option.value (get la name) ~default:0.0) in
                 let vb = int_of_float (Option.value (get lb name) ~default:0.0) in
                 if va = vb then Printf.sprintf "p%s=%d" p va
                 else Printf.sprintf "p%s=%d->%d" p va vb)
               a_lat b_lat)
        in
        Printf.bprintf b_buf "%-24s %8.1f->%8.1f %s %6.3f->%.3f %8.0f->%5.0f %s  %s\n"
          name sa sb delta (f a_serial) (f b_serial) mwa mwb mw_delta lat_cell)
    names;
  Buffer.contents b_buf

let alloc_regressions ~budgets rows =
  List.filter_map
    (fun r ->
      match List.assoc_opt r.name budgets with
      | Some budget when budget > 0.0 && r.steps > 0 && r.wall_ns <> 0L ->
        let mw = r.minor_words /. float_of_int r.steps in
        if mw > budget then Some (r.name, budget, mw) else None
      | Some _ | None -> None)
    rows

(* ------------------------------------------------------------------ *)
(* The differential fixture: 21 mixed scenarios whose end states the    *)
(* pre-optimization engine wrote to test/golden_engine.txt. The         *)
(* differential test regenerates these lines and diffs byte-for-byte:   *)
(* any drift in scheduling, marking, fault handling or tracing shows    *)
(* up as a diff, which is how the hot-path rewrite is pinned to         *)
(* bit-identical semantics. Do not edit casually: any change here or    *)
(* to the fixture must regenerate the other.                            *)
(* ------------------------------------------------------------------ *)

let golden_workloads =
  [|
    ("fib11", Prelude.fib 11);
    ("sumrange16", Prelude.sum_range 16);
    ("spec25", Prelude.speculative 25);
    ("specdeep", Prelude.speculative_deep 600 10);
    ("deadlock", Prelude.deadlock);
  |]

let golden_gc_modes =
  [|
    ("conc-a", Engine.Concurrent { deadlock_every = 1; idle_gap = 20 });
    ("conc-b", Engine.Concurrent { deadlock_every = 2; idle_gap = 10 });
    ("stw", Engine.Stop_the_world { every = 300 });
    ("rc", Engine.Refcount);
    ("nogc", Engine.No_gc);
  |]

let golden_pes = [| 1; 2; 4; 8 |]
let golden_latencies = [| 2; 4; 8 |]
let golden_policies = [| Pool.Dynamic; Pool.Flat; Pool.By_demand |]

(* Line 20 onwards crash whole PEs: on 4 PEs at this rate some steps
   crash two or three of them, and each crash after a step's first
   restores from the checkpoint that step's first crash synced. *)
let golden_scenario i =
  let wname, source = golden_workloads.(i mod 5) in
  let gname, gc = golden_gc_modes.(3 * i mod 5) in
  let crash = i >= 20 in
  let faults =
    if crash then
      {
        Faults.none with
        Faults.drop = 0.05;
        crash = 0.02;
        crash_down_max = 12;
        fault_seed = i;
      }
    else if i mod 4 = 1 then
      {
        Faults.none with
        Faults.drop = 0.08;
        duplicate = 0.04;
        delay = 0.08;
        stall = 0.01;
        fault_seed = i;
      }
    else Faults.none
  in
  let config =
    Engine.Config.make
      ~num_pes:golden_pes.(i / 2 mod 4)
      ~latency:golden_latencies.(i mod 3)
      ~heap_size:(if i mod 2 = 0 then Some 12_000 else None)
      ~pool_policy:golden_policies.(i mod 3)
      ~speculate_if:(not (i = 7 || i = 14))
      ~gc
      ~marking:
        (if i mod 4 = 3 then Dgr_core.Cycle.Flood_counters
         else Dgr_core.Cycle.Tree)
      ~jitter:(if i mod 3 = 0 then 0.25 else 0.0)
      ~seed:(1000 + i) ~faults ()
  in
  ( Printf.sprintf "%02d-%s-%s%s" i wname gname (if crash then "-crash" else ""),
    config,
    source )

let golden_line ?(domains = 1) i =
  let name, config, source = golden_scenario i in
  let config = Engine.Config.with_domains domains config in
  let num_pes = Engine.Config.num_pes config in
  let g, templates = Compile.load_string ~num_pes source in
  let recorder =
    Dgr_obs.Recorder.create ~capacity:(1 lsl 18) ~sample_every:25 ~num_pes ()
  in
  let e = Engine.create ~recorder ~config g templates in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps:40_000 e in
  Engine.dispose e;
  let m = Engine.metrics e in
  let live =
    String.concat "," (List.map string_of_int (Graph.live_vids (Engine.graph e)))
  in
  let deadlocked =
    match Engine.cycle e with
    | Some c ->
      String.concat ","
        (List.map Vid.to_string
           (Vid.Set.elements (Dgr_core.Cycle.deadlocked_ever c)))
    | None -> ""
  in
  let result =
    match Engine.result e with
    | Some v -> Format.asprintf "%a" Label.pp_value v
    | None -> "-"
  in
  let trace_md5 =
    Digest.to_hex (Digest.string (Dgr_obs.Export.chrome_trace recorder))
  in
  Printf.sprintf
    "%s now=%d completion=%s result=%s live_md5=%s live_n=%d dl=[%s] red=%d mark=%d \
     remote=%d local=%d purged=%d cycles=%d stw=%d pause=%d peak=%d drops=%d dups=%d \
     retx=%d stalls=%d frames=%d acks=%d trace_md5=%s"
    name (Engine.now e)
    (match m.Metrics.completion_step with Some s -> string_of_int s | None -> "-")
    result
    (Digest.to_hex (Digest.string live))
    (Graph.live_count (Engine.graph e))
    deadlocked m.Metrics.reduction_executed m.Metrics.marking_executed
    m.Metrics.remote_messages m.Metrics.local_messages m.Metrics.tasks_purged
    m.Metrics.cycles_completed m.Metrics.stw_collections m.Metrics.total_pause_steps
    m.Metrics.peak_live m.Metrics.msgs_dropped m.Metrics.msgs_duplicated
    m.Metrics.retransmits m.Metrics.stalls m.Metrics.frames_sent
    m.Metrics.acks_sent trace_md5

let golden_lines ?domains () = List.init 21 (fun i -> golden_line ?domains i)
