(* dgr — run programs on the distributed graph-reduction machine.

   Subcommands:
     dgr run FILE       evaluate a program (or -e EXPR) on the simulator
     dgr trace FILE     evaluate with event tracing, write a Perfetto trace
     dgr check FILE     parse + compile only
     dgr experiment ID  regenerate an experiment table (e1..e12, all)
     dgr bench          run the macro-benchmark suite, write BENCH.json
     dgr report         run a program or bench scenario, print the post-run
                        lineage/latency/health/serial-fraction analysis

   See `dgr run --help` for the machine knobs. *)

open Cmdliner
open Dgr_sim

let setup_logs level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level level

(* A FILE's text; a missing or unreadable one is a user error that names
   the path. *)
let read_file path =
  try Ok (In_channel.with_open_text path In_channel.input_all)
  with Sys_error msg ->
    Error (if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg)

let read_source file expr =
  match (file, expr) with
  | Some f, None -> read_file f
  | None, Some e -> Ok ("def main = " ^ e ^ ";")
  | Some _, Some _ -> Error "pass either FILE or --expr, not both"
  | None, None -> Error "a FILE or --expr is required"

(* --- machine configuration (shared by run and trace) ----------------- *)

type machine_opts = {
  pes : int;
  domains : int;
  latency : int;
  tasks_per_step : int;
  gc_str : string;
  heap : int option;
  idle_gap : int;
  deadlock_every : int;
  stw_every : int;
  policy_str : string;
  marking_str : string;
  recover_deadlock : bool;
  jitter : float;
  seed : int;
  no_speculate : bool;
  fault_drop : float;
  fault_dup : float;
  fault_delay : float;
  fault_stall : float;
  fault_crash : float;
  fault_crash_down : int;
  fault_seed : int;
  no_batch : bool;
}

let gc_of_string s ~deadlock_every ~idle_gap ~stw_every =
  match s with
  | "concurrent" -> Ok (Engine.Concurrent { deadlock_every; idle_gap })
  | "stw" -> Ok (Engine.Stop_the_world { every = stw_every })
  | "refcount" | "rc" -> Ok Engine.Refcount
  | "none" -> Ok Engine.No_gc
  | s -> Error (Printf.sprintf "unknown collector %S (concurrent|stw|refcount|none)" s)

let policy_of_string = function
  | "flat" -> Ok Pool.Flat
  | "by-demand" -> Ok Pool.By_demand
  | "dynamic" -> Ok Pool.Dynamic
  | s -> Error (Printf.sprintf "unknown policy %S (flat|by-demand|dynamic)" s)

let config_of_opts o =
  let ( let* ) = Result.bind in
  let* gc =
    gc_of_string o.gc_str ~deadlock_every:o.deadlock_every ~idle_gap:o.idle_gap
      ~stw_every:o.stw_every
  in
  let* policy = policy_of_string o.policy_str in
  let* marking =
    match o.marking_str with
    | "tree" -> Ok Dgr_core.Cycle.Tree
    | "flood" -> Ok Dgr_core.Cycle.Flood_counters
    | s -> Error (Printf.sprintf "unknown marking scheme %S (tree|flood)" s)
  in
  try
    Ok
      (Engine.Config.make ~num_pes:o.pes ~domains:o.domains ~latency:o.latency
         ~tasks_per_step:o.tasks_per_step ~heap_size:o.heap ~pool_policy:policy
         ~speculate_if:(not o.no_speculate) ~gc ~marking
         ~recover_deadlock:o.recover_deadlock ~jitter:o.jitter ~seed:o.seed
         ~batch:(not o.no_batch)
         ~faults:
           {
             Faults.none with
             Faults.drop = o.fault_drop;
             duplicate = o.fault_dup;
             delay = o.fault_delay;
             stall = o.fault_stall;
             crash = o.fault_crash;
             crash_down_max = o.fault_crash_down;
             fault_seed = o.fault_seed;
           }
         ())
  with Invalid_argument msg -> Error msg

(* What each invocation wants written out. *)
type outputs = {
  trace : string option;  (** Chrome trace-event JSON *)
  timeseries : string option;  (** sampled per-PE series as CSV *)
  stats_json : string option;  (** {!Metrics.to_json} *)
  sample_every : int;
  show_stats : bool;
  dot_out : string option;
}

let execute ~file ~expr ~opts ~max_steps ~out =
  let ( let* ) = Result.bind in
  let* source = read_source file expr in
  let* config = config_of_opts opts in
  let* g, templates =
    try Ok (Dgr_lang.Compile.load_string ~num_pes:opts.pes source) with
    | Dgr_lang.Compile.Compile_error msg -> Error ("compile error: " ^ msg)
    | Dgr_lang.Parser.Parse_error msg -> Error ("parse error: " ^ msg)
    | Dgr_lang.Lexer.Error (msg, pos) ->
      Error (Printf.sprintf "lex error at offset %d: %s" pos msg)
  in
  let recorder =
    if out.trace <> None || out.timeseries <> None then
      Some
        (Dgr_obs.Recorder.create ~capacity:262_144 ~sample_every:out.sample_every
           ~num_pes:opts.pes ())
    else None
  in
  let e = Engine.create ?recorder ~config g templates in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps e in
  (match Engine.result e with
  | Some v -> Format.printf "result: %a@." Dgr_graph.Label.pp_value v
  | None ->
    Format.printf "no result after %d steps%s@." (Engine.now e)
      (match Engine.cycle e with
      | Some c
        when not (Dgr_graph.Vid.Set.is_empty (Dgr_core.Cycle.deadlocked_ever c)) ->
        " — deadlock detected: "
        ^ String.concat ", "
            (List.map Dgr_graph.Vid.to_string
               (Dgr_graph.Vid.Set.elements (Dgr_core.Cycle.deadlocked_ever c)))
      | _ -> ""));
  if out.show_stats then begin
    Format.printf "%a@." Metrics.pp_summary (Engine.metrics e);
    let red = Engine.reducer e in
    Format.printf
      "reducer: requests=%d responds=%d cancels=%d expansions=%d rewrites=%d stale=%d \
       alloc-stalls=%d@."
      red.Dgr_reduction.Reducer.requests_executed red.Dgr_reduction.Reducer.responds_executed
      red.Dgr_reduction.Reducer.cancels_executed red.Dgr_reduction.Reducer.expansions
      red.Dgr_reduction.Reducer.rewrites red.Dgr_reduction.Reducer.stale_dropped
      red.Dgr_reduction.Reducer.alloc_stalls;
    (match Engine.cycle e with
    | Some c ->
      Format.printf "gc: cycles=%d collected=%d deadlocked=%d@."
        (Dgr_core.Cycle.cycles_completed c)
        (Dgr_core.Cycle.total_garbage_collected c)
        (Dgr_graph.Vid.Set.cardinal (Dgr_core.Cycle.deadlocked_ever c))
    | None -> ());
    match Engine.refcount e with
    | Some rc ->
      Format.printf "rc: reclaimed=%d messages=%d leaked=%d@."
        (Dgr_baseline.Refcount.reclaimed rc)
        (Dgr_baseline.Refcount.messages rc)
        (List.length (Dgr_baseline.Refcount.leaked rc))
    | None -> ()
  end;
  try
    (match (out.trace, recorder) with
    | Some path, Some r ->
      Dgr_obs.Export.write_file path (Dgr_obs.Export.chrome_trace r);
      Format.printf "trace written to %s (%d events%s)@." path
        (Dgr_obs.Recorder.length r)
        (let d = Dgr_obs.Recorder.dropped r in
         if d = 0 then "" else Printf.sprintf ", %d dropped" d)
    | _ -> ());
    (match (out.timeseries, recorder) with
    | Some path, Some r ->
      Dgr_obs.Export.write_file path (Dgr_obs.Export.timeseries_csv r);
      Format.printf "time series written to %s@." path
    | _ -> ());
    (match out.stats_json with
    | Some path ->
      Dgr_obs.Export.write_file path (Metrics.to_json (Engine.metrics e));
      Format.printf "metrics written to %s@." path
    | None -> ());
    (match out.dot_out with
    | Some path ->
      Dgr_graph.Dot.to_file g path;
      Format.printf "graph written to %s@." path
    | None -> ());
    Ok ()
  with Sys_error msg -> Error msg

let report = function
  | Ok () -> 0
  | Error msg ->
    Format.eprintf "dgr: %s@." msg;
    1

let run_cmd file expr opts trace timeseries stats_json sample_every max_steps show_stats
    dot_out log_level =
  setup_logs log_level;
  report
    (execute ~file ~expr ~opts ~max_steps
       ~out:{ trace; timeseries; stats_json; sample_every; show_stats; dot_out })

let trace_cmd file expr opts output timeseries sample_every max_steps log_level =
  setup_logs log_level;
  report
    (execute ~file ~expr ~opts ~max_steps
       ~out:
         {
           trace = Some output;
           timeseries;
           stats_json = None;
           sample_every;
           show_stats = false;
           dot_out = None;
         })

let check_cmd file =
  match
    Result.bind (read_file file) @@ fun source ->
    try
      let program = Dgr_lang.Parser.parse_program source in
      let (_ : Dgr_reduction.Template.registry) = Dgr_lang.Compile.compile_program program in
      Ok (List.length program)
    with
    | Dgr_lang.Compile.Compile_error msg -> Error ("compile error: " ^ msg)
    | Dgr_lang.Parser.Parse_error msg -> Error ("parse error: " ^ msg)
    | Dgr_lang.Lexer.Error (msg, pos) ->
      Error (Printf.sprintf "lex error at offset %d: %s" pos msg)
  with
  | Ok n ->
    Format.printf "%s: ok (%d definitions)@." file n;
    0
  | Error msg ->
    Format.eprintf "dgr: %s@." msg;
    1

let experiment_cmd id trace_dir =
  match Dgr_harness.Experiments.run ?trace_dir id with
  | () -> 0
  | exception Invalid_argument msg ->
    Format.eprintf "dgr: %s@." msg;
    1

let bench_cmd smoke deterministic domains batch out baseline alloc_budget
    serial_ceiling list_only compare compare_to =
  let module B = Dgr_harness.Bench in
  if list_only then begin
    List.iter print_endline (B.scenario_names ~smoke);
    0
  end
  else
    match compare with
    | Some base_path -> (
      match compare_to with
      | None ->
        Format.eprintf
          "dgr: --compare needs a second BENCH.json (dgr bench --compare A.json B.json)@.";
        1
      | Some cand_path -> (
        try
          let read p = In_channel.with_open_text p In_channel.input_all in
          print_string
            (B.compare_table ~baseline:(read base_path) ~candidate:(read cand_path));
          0
        with
        | Sys_error msg | Failure msg ->
          Format.eprintf "dgr: %s@." msg;
          1))
    | None ->
  (* no diff requested: run the suite *)
    match
      let rows =
        List.map
          (fun name ->
            match
              B.run_suite ~domains ~batch ~only:[ name ] ~smoke ~deterministic ()
            with
            | [ row ] ->
              Format.printf "%-24s %8d steps %9d tasks%s%s%s@." name row.B.steps
                row.B.tasks
                (if row.B.frames_sent = 0 then ""
                 else
                   Printf.sprintf "  %.1f tasks/frame" row.B.tasks_per_frame)
                (if deterministic || row.B.wall_ns = 0L then ""
                 else
                   Printf.sprintf "  %.0f steps/sec"
                     (float_of_int row.B.steps
                     /. (Int64.to_float row.B.wall_ns /. 1e9)))
                (if deterministic || row.B.wall_ns = 0L then ""
                 else Printf.sprintf "  serial=%.2f" row.B.serial_fraction);
              row
            | _ -> assert false)
          (B.scenario_names ~smoke)
      in
      let rows, digest_check =
        (* With shards and live clocks, take a sequential reference pass
           and report the comparison; any digest divergence is a
           determinism bug, outranks the numbers and fails the run. *)
        if domains > 1 && not deterministic then begin
          let seq = B.run_suite ~domains:1 ~batch ~smoke ~deterministic () in
          Format.printf "@.%-24s %13s %13s %9s@." "scenario" "seq steps/s"
            (Printf.sprintf "%dd steps/s" domains)
            "speedup";
          let table = B.speedup_table ~seq ~par:rows in
          List.iter
            (fun (name, seq_sps, par_sps, agree) ->
              Format.printf "%-24s %13.0f %13.0f %8.2fx%s@." name seq_sps
                par_sps
                (if seq_sps > 0.0 then par_sps /. seq_sps else 0.0)
                (if agree then "" else "  DIGEST MISMATCH"))
            table;
          let digest_of rs name = (List.find (fun r -> r.B.name = name) rs).B.digest in
          let mismatches =
            List.filter_map
              (fun (name, _, _, agree) ->
                if agree then None
                else
                  Some
                    (Printf.sprintf "%s digest mismatch: sequential %s, %d domains %s"
                       name (digest_of seq name) domains (digest_of rows name)))
              table
          in
          ( B.with_speedups ~seq rows,
            if mismatches = [] then Ok () else Error (String.concat "; " mismatches) )
        end
        else (rows, Ok ())
      in
      let mode = if smoke then "smoke" else "full" in
      let json = B.to_json ~batch ~mode ~deterministic rows in
      Dgr_obs.Export.write_file out json;
      Format.printf "wrote %s (%d scenarios, mode=%s%s)@." out (List.length rows)
        mode
        (if deterministic then ", deterministic" else "");
      let rate_check =
        match baseline with
        | None -> Ok ()
        | Some path -> (
          let base = In_channel.with_open_text path In_channel.input_all in
          match B.regressions ~threshold:0.2 ~baseline:base rows with
          | [] ->
            Format.printf "no steps/sec regression beyond 20%% vs %s@." path;
            Ok ()
          | regs ->
            Error
              (String.concat "; "
                 (List.map
                    (fun (n, b, c) ->
                      Printf.sprintf "%s regressed: %.0f -> %.0f steps/sec" n b
                        c)
                    regs)))
      in
      let alloc_check =
        match alloc_budget with
        | None -> Ok ()
        | Some path -> (
          let doc = In_channel.with_open_text path In_channel.input_all in
          let budgets = B.scenario_alloc_budgets doc in
          match B.alloc_regressions ~budgets rows with
          | [] ->
            Format.printf "allocation within budget for every scenario in %s@."
              path;
            Ok ()
          | regs ->
            Error
              (String.concat "; "
                 (List.map
                    (fun (n, b, c) ->
                      Printf.sprintf
                        "%s over allocation budget: %.0f > %.0f minor \
                         words/step"
                        n c b)
                    regs)))
      in
      let serial_check =
        (* The Amdahl gate: the decentralized-cycle work is only real if
           the measured serial fraction on the marking-heavy storm stays
           under its committed ceiling. Wall-clock derived, so it is
           skipped on deterministic passes (the profile is zeroed). *)
        match serial_ceiling with
        | None -> Ok ()
        | Some _ when deterministic -> Ok ()
        | Some ceil -> (
          match
            List.find_opt (fun r -> r.B.name = "storm-tree-8k") rows
          with
          | None -> Ok ()
          | Some row when row.B.serial_fraction <= ceil ->
            Format.printf "serial fraction %.2f within ceiling %.2f on storm-tree-8k@."
              row.B.serial_fraction ceil;
            Ok ()
          | Some row ->
            Error
              (Printf.sprintf
                 "storm-tree-8k serial fraction over ceiling: %.2f > %.2f"
                 row.B.serial_fraction ceil))
      in
      (match
         List.filter_map
           (function Error e -> Some e | Ok () -> None)
           [ digest_check; rate_check; alloc_check; serial_check ]
       with
      | [] -> Ok ()
      | errs -> Error (String.concat "; " errs))
    with
    | Ok () -> 0
    | Error msg
    | (exception Sys_error msg)
    | (exception Failure msg)
    | (exception Invalid_argument msg) ->
      Format.eprintf "dgr: %s@." msg;
      1

(* [dgr report]: run a workload to completion, then render the post-run
   analysis (latency decomposition, critical-path lineages, health,
   serial fraction) from the engine's always-on observability. *)
let report_run ~file ~expr ~opts ~scenario ~deterministic ~max_steps ~out =
  let ( let* ) = Result.bind in
  let* e =
    match scenario with
    | Some name -> (
      match (file, expr) with
      | None, None -> (
        try Ok (Dgr_harness.Bench.run_for_report ~domains:opts.domains name)
        with Invalid_argument msg -> Error msg)
      | _ -> Error "pass either --scenario or FILE/--expr, not both")
    | None ->
      let* source = read_source file expr in
      let* config = config_of_opts opts in
      let* g, templates =
        try Ok (Dgr_lang.Compile.load_string ~num_pes:opts.pes source) with
        | Dgr_lang.Compile.Compile_error msg -> Error ("compile error: " ^ msg)
        | Dgr_lang.Parser.Parse_error msg -> Error ("parse error: " ^ msg)
        | Dgr_lang.Lexer.Error (msg, pos) ->
          Error (Printf.sprintf "lex error at offset %d: %s" pos msg)
      in
      let e = Engine.create ~config g templates in
      Engine.inject_root_demand e;
      let (_ : int) = Engine.run ~max_steps e in
      Ok e
  in
  let text = Dgr_harness.Report.render ~deterministic e in
  try
    (match out with
    | Some path ->
      Dgr_obs.Export.write_file path text;
      Format.printf "report written to %s@." path
    | None -> print_string text);
    Ok ()
  with Sys_error msg -> Error msg

let report_cmd file expr opts scenario deterministic max_steps out =
  report (report_run ~file ~expr ~opts ~scenario ~deterministic ~max_steps ~out)

(* --- cmdliner plumbing ---------------------------------------------- *)

let file_pos = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE")

let expr_arg =
  Arg.(value & opt (some string) None & info [ "e"; "expr" ] ~docv:"EXPR"
         ~doc:"Evaluate $(docv) instead of a file (becomes $(b,def main = EXPR;)).")

let pes_arg =
  Arg.(value & opt int 4 & info [ "p"; "pes" ] ~docv:"N" ~doc:"Number of processing elements.")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Shards to split the PEs into, stepped one after another (at least 1, \
               capped at the PE count). The run is bit-identical at every value.")

let latency_arg =
  Arg.(value & opt int 4 & info [ "latency" ] ~docv:"STEPS" ~doc:"Cross-PE message latency.")

let tps_arg =
  Arg.(value & opt int 2 & info [ "tasks-per-step" ] ~docv:"N"
         ~doc:"Per-PE reduction bandwidth per step.")

let gc_arg =
  Arg.(value & opt string "concurrent" & info [ "gc" ] ~docv:"MODE"
         ~doc:"Memory management: $(b,concurrent) (the paper's), $(b,stw), $(b,refcount), \
               $(b,none).")

let heap_arg =
  Arg.(value & opt (some int) (Some 50_000) & info [ "heap" ] ~docv:"N"
         ~doc:"Vertex-table bound (finite V, §2.2); 0 or negative for unbounded.")

let idle_gap_arg =
  Arg.(value & opt int 50 & info [ "idle-gap" ] ~docv:"STEPS"
         ~doc:"Steps between concurrent GC cycles.")

let deadlock_every_arg =
  Arg.(value & opt int 1 & info [ "deadlock-every" ] ~docv:"K"
         ~doc:"Run M_T (deadlock detection) every K-th cycle; 0 disables it.")

let stw_every_arg =
  Arg.(value & opt int 400 & info [ "stw-every" ] ~docv:"STEPS"
         ~doc:"Stop-the-world collection period.")

let policy_arg =
  Arg.(value & opt string "dynamic" & info [ "policy" ] ~docv:"P"
         ~doc:"Task-pool policy: $(b,flat), $(b,by-demand), $(b,dynamic).")

let marking_arg =
  Arg.(value & opt string "tree" & info [ "marking" ] ~docv:"SCHEME"
         ~doc:"Marking bookkeeping: $(b,tree) (Figs 4-1/5-1) or $(b,flood) (the §6 \
               two-counters-per-PE optimization).")

let recover_arg =
  Arg.(value & flag & info [ "recover-deadlock" ]
         ~doc:"Rewrite detected deadlocked operators to an error value (footnote 5's \
               is-bottom pseudo-function) instead of only reporting them.")

let jitter_arg =
  Arg.(value & opt float 0.0 & info [ "jitter" ] ~docv:"P"
         ~doc:"Probability of extra (seeded) delay on remote messages.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Seed for the machine's randomness.")

let no_spec_arg =
  Arg.(value & flag & info [ "no-speculation" ]
         ~doc:"Disable eager evaluation of conditional branches (pure laziness).")

let fault_drop_arg =
  Arg.(value & opt float 0.0 & info [ "fault-drop" ] ~docv:"P"
         ~doc:"Probability that a network frame is lost in transit. Any positive fault \
               probability turns on the reliable-delivery layer (acks, retransmission, \
               dedup).")

let fault_dup_arg =
  Arg.(value & opt float 0.0 & info [ "fault-dup" ] ~docv:"P"
         ~doc:"Probability that a data frame is duplicated in transit (the duplicate is \
               suppressed by receiver-side dedup).")

let fault_delay_arg =
  Arg.(value & opt float 0.0 & info [ "fault-delay" ] ~docv:"P"
         ~doc:"Probability that a frame takes extra, seeded delay (reordering).")

let fault_stall_arg =
  Arg.(value & opt float 0.0 & info [ "fault-stall" ] ~docv:"P"
         ~doc:"Per-PE, per-step probability that a transient stall begins (the PE stops \
               executing for a few steps; its pool and heap survive).")

let fault_crash_arg =
  Arg.(value & opt float 0.0 & info [ "fault-crash" ] ~docv:"P"
         ~doc:"Per-PE, per-step probability that the PE crashes outright: its task \
               pool and in-flight frames are lost; on a step where two or more \
               PEs crash, each segment is restored from a checkpoint synced \
               before the first of them; the PE's vertices re-home onto the \
               surviving PEs, and an interrupted marking phase restarts. A crash \
               that would leave no survivor is suppressed.")

let fault_crash_down_arg =
  Arg.(value & opt int 32 & info [ "fault-crash-down" ] ~docv:"STEPS"
         ~doc:"Maximum downtime of a crashed PE, in steps (the actual downtime is \
               seeded-uniform in [1, $(docv)]; the PE then rejoins empty-handed).")

let fault_seed_arg =
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N"
         ~doc:"Seed for the fault plane's randomness, independent of $(b,--seed): same \
               config, seed and fault-seed replay byte-identically.")

let no_batch_arg =
  Arg.(value & flag & info [ "no-batch" ]
         ~doc:"Disable per-link frame batching: every task rides its own frame, as in \
               the paper's one-task-per-message model. The escape hatch for isolating \
               transport effects; batching changes no task-level semantics, only \
               frame counts and delivery grouping.")

let max_steps_arg =
  Arg.(value & opt int 1_000_000 & info [ "max-steps" ] ~docv:"N"
         ~doc:"Simulation step budget.")

let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"Print run metrics.")

let dot_arg =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"PATH"
         ~doc:"Write the final graph as Graphviz DOT.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH"
         ~doc:"Record structured events and write Chrome trace-event JSON (open in \
               Perfetto or chrome://tracing). Deterministic: same program, config and \
               seed produce byte-identical output.")

let timeseries_arg =
  Arg.(value & opt (some string) None & info [ "timeseries" ] ~docv:"PATH"
         ~doc:"Write the sampled per-PE time series (pool depth, throughput, live \
               vertices, messages in flight) as CSV.")

let stats_json_arg =
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"PATH"
         ~doc:"Write run metrics as a JSON object (machine-readable $(b,--stats)).")

let sample_every_arg =
  Arg.(value & opt int 20 & info [ "sample-every" ] ~docv:"STEPS"
         ~doc:"Time-series sampling interval, in simulation steps (0 disables sampling).")

let heap_normalize = function Some n when n <= 0 -> None | h -> h

let machine_term =
  Term.(
    const
      (fun pes domains latency tasks_per_step gc_str heap idle_gap deadlock_every
           stw_every policy_str marking_str recover_deadlock jitter seed no_speculate
           fault_drop fault_dup fault_delay fault_stall fault_crash fault_crash_down
           fault_seed no_batch ->
        {
          pes;
          domains;
          latency;
          tasks_per_step;
          gc_str;
          heap = heap_normalize heap;
          idle_gap;
          deadlock_every;
          stw_every;
          policy_str;
          marking_str;
          recover_deadlock;
          jitter;
          seed;
          no_speculate;
          fault_drop;
          fault_dup;
          fault_delay;
          fault_stall;
          fault_crash;
          fault_crash_down;
          fault_seed;
          no_batch;
        })
    $ pes_arg $ domains_arg $ latency_arg $ tps_arg $ gc_arg $ heap_arg $ idle_gap_arg
    $ deadlock_every_arg $ stw_every_arg $ policy_arg $ marking_arg $ recover_arg
    $ jitter_arg $ seed_arg $ no_spec_arg $ fault_drop_arg $ fault_dup_arg
    $ fault_delay_arg $ fault_stall_arg $ fault_crash_arg $ fault_crash_down_arg
    $ fault_seed_arg $ no_batch_arg)

let run_term =
  Term.(
    const
      (fun file expr opts trace timeseries stats_json sample_every ms stats dot ->
        run_cmd file expr opts trace timeseries stats_json sample_every ms stats dot
          (Some Logs.Warning))
    $ file_pos $ expr_arg $ machine_term $ trace_arg $ timeseries_arg $ stats_json_arg
    $ sample_every_arg $ max_steps_arg $ stats_arg $ dot_arg)

let run_cmd_v =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Evaluate a program on the simulated distributed machine.")
    run_term

let trace_out_arg =
  Arg.(value & opt string "trace.json" & info [ "o"; "output" ] ~docv:"PATH"
         ~doc:"Where to write the Chrome trace-event JSON.")

let trace_term =
  Term.(
    const
      (fun file expr opts output timeseries sample_every ms ->
        trace_cmd file expr opts output timeseries sample_every ms (Some Logs.Warning))
    $ file_pos $ expr_arg $ machine_term $ trace_out_arg $ timeseries_arg
    $ sample_every_arg $ max_steps_arg)

let trace_cmd_v =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Evaluate a program with event tracing on and write a Perfetto-viewable \
             Chrome trace (shorthand for $(b,run --trace)). Tracks: one per PE \
             (task execution and message instants), one for the marking plane \
             (M_T/M_R/restructure phase spans, deadlock and irrelevance verdicts), \
             one for the controller (pauses, heap pressure), plus counter tracks \
             for the sampled time series.")
    trace_term

let check_term =
  Term.(
    const (fun file ->
        match file with
        | Some f -> check_cmd f
        | None ->
          Format.eprintf "dgr: a FILE is required@.";
          1)
    $ file_pos)

let check_cmd_v =
  Cmd.v (Cmd.info "check" ~doc:"Parse and compile a program without running it.") check_term

let trace_dir_arg =
  Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR"
         ~doc:"Also write a Chrome trace per simulated run into $(docv) (created if \
               missing), numbered per experiment: e4-01.json, e4-02.json, ...")

let experiment_term =
  let doc =
    Printf.sprintf "Experiment id: %s or $(b,all)."
      (String.concat ", " (List.map (Printf.sprintf "$(b,%s)") Dgr_harness.Experiments.ids))
  in
  Term.(
    const experiment_cmd
    $ Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
    $ trace_dir_arg)

let experiment_cmd_v =
  let man =
    `S Manpage.s_description
    :: `P "The registered experiments (see EXPERIMENTS.md):"
    :: List.map
         (fun (id, { Dgr_harness.Experiments.title; paper_ref }, _) ->
           `P (Printf.sprintf "$(b,%s) — %s (%s)" id title paper_ref))
         Dgr_harness.Experiments.all
  in
  Cmd.v
    (Cmd.info "experiment" ~man
       ~doc:"Regenerate an experiment table (see EXPERIMENTS.md).")
    experiment_term

let bench_smoke_arg =
  Arg.(value & flag & info [ "smoke" ]
         ~doc:"Run only the smoke subset — the cheap half of the suite at the same \
               sizes (a subset, not a miniature), so its rates compare directly \
               against a full-run baseline (CI).")

let bench_det_arg =
  Arg.(value & flag & info [ "deterministic" ]
         ~doc:"Skip the wall-clock and allocation meters and zero their fields: the \
               output is then byte-reproducible across runs and machines (the \
               determinism check in CI diffs two such files).")

let bench_domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Split each scenario's machine into $(docv) shards (at least 1). \
               Simulation fields and digests are identical at every value; with \
               $(docv) > 1 (and without $(b,--deterministic)) an extra 1-shard \
               pass runs and a table compares the two rates and digests.")

let bench_out_arg =
  Arg.(value & opt string "BENCH.json" & info [ "o"; "output" ] ~docv:"PATH"
         ~doc:"Where to write the results (versioned JSON, schema_version 5).")

let bench_no_batch_arg =
  Arg.(value & flag & info [ "no-batch" ]
         ~doc:"Run every scenario with frame batching off (one task per frame): the \
               transport floor to compare frames_sent and steps/sec against.")

let bench_baseline_arg =
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"PATH"
         ~doc:"Compare steps/sec per scenario against a committed BENCH.json and exit \
               non-zero if any scenario regressed by more than 20%.")

let bench_alloc_budget_arg =
  Arg.(value & opt (some string) None & info [ "alloc-budget" ] ~docv:"PATH"
         ~doc:"Compare minor words allocated per step against a committed \
               per-scenario budget file and exit non-zero if any scenario \
               exceeds its ceiling. Allocation per step is near-deterministic, \
               so the budget is absolute — no noise tolerance. Ignored under \
               $(b,--deterministic) (the meters are zeroed).")

let bench_serial_ceiling_arg =
  Arg.(value & opt (some float) None & info [ "serial-ceiling" ] ~docv:"FRAC"
         ~doc:"Fail if the measured Amdahl serial fraction on the storm-tree-8k \
               scenario exceeds $(docv) (in [0,1]). Skipped under \
               $(b,--deterministic), which zeroes the wall-clock profile.")

let bench_list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List the scenario names and exit.")

let bench_compare_arg =
  Arg.(value & opt (some string) None & info [ "compare" ] ~docv:"BASELINE"
         ~doc:"Diff two committed BENCH.json files instead of running the suite: \
               $(b,dgr bench --compare A.json B.json) prints a per-scenario table \
               of steps/sec, serial fraction, minor words/step and latency \
               percentile deltas from $(docv) to the positional candidate file.")

let bench_compare_to_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"CANDIDATE"
         ~doc:"The candidate BENCH.json for $(b,--compare).")

let bench_term =
  Term.(
    const bench_cmd $ bench_smoke_arg $ bench_det_arg $ bench_domains_arg
    $ Term.app (const not) bench_no_batch_arg $ bench_out_arg $ bench_baseline_arg
    $ bench_alloc_budget_arg $ bench_serial_ceiling_arg $ bench_list_arg
    $ bench_compare_arg $ bench_compare_to_arg)

let bench_cmd_v =
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run the macro-benchmark suite — seeded end-to-end machine scenarios \
             (demand storms over large random graphs, programs under each collector, \
             fault and jitter planes) — and write BENCH.json: throughput \
             (steps/tasks/messages per second), allocation per step, marking-cycle \
             length, and a digest of each run's deterministic end state. See the \
             README's Benchmarking section.")
    bench_term

let report_scenario_arg =
  Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME"
         ~doc:"Analyze a bench-suite scenario (see $(b,dgr bench --list)) instead of \
               a FILE/$(b,--expr) program. Only $(b,--domains) applies among the \
               machine knobs; the scenario fixes the rest.")

let report_det_arg =
  Arg.(value & flag & info [ "deterministic" ]
         ~doc:"Omit the wall-clock step-phase section, making the report \
               byte-reproducible across runs and machines (the CI smoke check \
               diffs two such reports).")

let report_out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
         ~doc:"Write the report to $(docv) instead of stdout.")

let report_term =
  Term.(
    const report_cmd
    $ file_pos $ expr_arg $ machine_term $ report_scenario_arg $ report_det_arg
    $ max_steps_arg $ report_out_arg)

let report_cmd_v =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run a program (FILE or $(b,--expr)) or a bench scenario \
             ($(b,--scenario)) to completion and print the post-run analysis: \
             per-task latency percentiles decomposed into queue / network / \
             retransmit / execution components (from the causal lineage \
             tickets), the top critical-path lineages, health-watchdog \
             verdicts, transport efficiency, and the step-phase profile with \
             the measured Amdahl serial fraction.")
    report_term

let main =
  Cmd.group
    (Cmd.info "dgr" ~version:"1.0.0"
       ~doc:"Distributed graph reduction with decentralized concurrent marking (Hudak, PODC \
             1983).")
    [ run_cmd_v; trace_cmd_v; check_cmd_v; experiment_cmd_v; bench_cmd_v; report_cmd_v ]

let () = exit (Cmd.eval' main)
