open Dgr_util
open Dgr_graph
open Dgr_sim
open Dgr_lang
module Cycle = Dgr_core.Cycle
module Reducer = Dgr_reduction.Reducer
module Template = Dgr_reduction.Template
module Reach = Dgr_analysis.Reach
module Classify = Dgr_analysis.Classify

type result = Table.t list

let empty_registry = Template.create_registry ()

(* --- optional trace sink -------------------------------------------- *)

(* When [run ~trace_dir] is given, every engine built through
   [run_program] gets a recorder and writes a Chrome trace on completion,
   numbered per experiment: DIR/e4-01.json, DIR/e4-02.json, ... *)
let trace_dir : string option ref = ref None
let trace_label = ref "exp"
let trace_counter = ref 0

let maybe_recorder (config : Engine.config) =
  match !trace_dir with
  | None -> None
  | Some _ ->
    Some
      (Dgr_obs.Recorder.create ~capacity:262_144 ~sample_every:20
         ~num_pes:(Engine.Config.num_pes config) ())

let write_trace e =
  match (!trace_dir, Engine.recorder e) with
  | Some dir, Some r ->
    incr trace_counter;
    let path = Filename.concat dir (Printf.sprintf "%s-%02d.json" !trace_label !trace_counter) in
    Dgr_obs.Export.write_file path (Dgr_obs.Export.chrome_trace r)
  | _ -> ()

let concurrent ?(deadlock_every = 1) ?(idle_gap = 50) () =
  Engine.Concurrent { deadlock_every; idle_gap }

let value_to_string = function
  | Some v -> Format.asprintf "%a" Label.pp_value v
  | None -> "-"

(* ------------------------------------------------------------------ *)
(* E1: Fig 3-1 — deadlock detection on x = x + 1.                      *)
(* ------------------------------------------------------------------ *)

let e1_deadlock ?seed:(_ = 1) () =
  let table =
    Table.create ~title:"E1 (Fig 3-1): deadlock detection on x = x + 1"
      ~columns:
        [
          ("PEs", Table.Right);
          ("steps to detect", Table.Right);
          ("cycles", Table.Right);
          ("x deadlocked", Table.Left);
          ("matches oracle", Table.Left);
          ("result", Table.Left);
        ]
  in
  List.iter
    (fun num_pes ->
      let scenario = Scenarios.fig_3_1 ~num_pes () in
      let g = scenario.Scenarios.graph in
      let config = Engine.Config.make ~num_pes ~gc:(concurrent ~idle_gap:10 ()) () in
      let e = Engine.create ~config g empty_registry in
      Engine.inject_root_demand e;
      let detected t =
        match Engine.cycle t with
        | Some c -> not (Vid.Set.is_empty (Cycle.deadlocked_ever c))
        | None -> false
      in
      let (_ : int) = Engine.run ~max_steps:20_000 ~stop:detected e in
      let first_detect = Engine.now e in
      (* Let a couple more cycles run: a stray in-flight response can keep
         a vertex task-reachable for one cycle. *)
      let (_ : int) = Engine.run ~max_steps:500 e in
      let c = Option.get (Engine.cycle e) in
      let dl = Cycle.deadlocked_ever c in
      let steps_to_detect = first_detect in
      (* Oracle verdict on the quiesced graph. *)
      let snap = Snapshot.take g in
      let sets = Classify.compute snap ~tasks:(Engine.pending_reduction_tasks e) in
      let oracle = sets.Classify.deadlocked in
      Table.add_row table
        [
          Table.cell_i num_pes;
          Table.cell_i steps_to_detect;
          Table.cell_i (Cycle.cycles_completed c);
          string_of_bool (Vid.Set.mem scenario.Scenarios.x dl);
          string_of_bool (Vid.Set.subset dl oracle && Vid.Set.mem scenario.Scenarios.x oracle);
          value_to_string (Engine.result e);
        ])
    [ 1; 2; 4; 8 ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* E2: Fig 3-2 — the four task types.                                  *)
(* ------------------------------------------------------------------ *)

let e2_task_types () =
  let scenario = Scenarios.fig_3_2 () in
  let g = scenario.Scenarios.graph in
  (* Decentralized verdict: one M_T pass then one M_R pass (Sync engine —
     the graph is frozen at the figure's instant). *)
  let sync = Dgr_core.Sync_engine.create g in
  let mt_seeds =
    List.concat_map Dgr_task.Task.reduction_endpoints scenario.Scenarios.tasks
    |> List.sort_uniq compare
  in
  let (_ : Dgr_core.Run.t) = Dgr_core.Sync_engine.start sync Dgr_core.Run.Tasks ~seeds:mt_seeds in
  let (_ : int) = Dgr_core.Sync_engine.drain sync in
  let (_ : Dgr_core.Run.t) =
    Dgr_core.Sync_engine.start sync Dgr_core.Run.Priority ~seeds:[ Graph.root g ]
  in
  let (_ : int) = Dgr_core.Sync_engine.drain sync in
  (* Oracle verdict. *)
  let snap = Snapshot.take g in
  let sets = Classify.compute snap ~tasks:scenario.Scenarios.tasks in
  let decentralized_kind dst =
    let vx = Graph.vertex g dst in
    if Vertex.unmarked vx Plane.MR then "irrelevant"
    else
      match Vertex.prior vx Plane.MR with
      | 3 -> "vital"
      | 2 -> "eager"
      | 1 -> "reserve"
      | _ -> "?"
  in
  let table =
    Table.create ~title:"E2 (Fig 3-2): vital / eager / reserve / irrelevant tasks"
      ~columns:
        [
          ("task <s,d>", Table.Left);
          ("destination", Table.Left);
          ("expected", Table.Left);
          ("oracle", Table.Left);
          ("marking", Table.Left);
        ]
  in
  let name_of =
    [
      (scenario.Scenarios.a1, "a+1");
      (scenario.Scenarios.d, "d");
      (scenario.Scenarios.c, "c");
      (scenario.Scenarios.abc, "a+b+c");
    ]
  in
  List.iter2
    (fun task expected ->
      let dst =
        match task with
        | Dgr_task.Task.Request { dst; _ } -> dst
        | Dgr_task.Task.Respond _ | Dgr_task.Task.Cancel _ -> assert false
      in
      Table.add_row table
        [
          Format.asprintf "%a" Dgr_task.Task.pp_reduction task;
          List.assoc dst name_of;
          expected;
          Classify.task_kind_to_string (Classify.classify_task sets task);
          decentralized_kind dst;
        ])
    scenario.Scenarios.tasks
    [ "vital"; "eager"; "reserve"; "irrelevant" ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* E3: Fig 3-3 — Venn structure on random graphs.                      *)
(* ------------------------------------------------------------------ *)

(* Synthesize an in-flight task per (sampled) requested-entry, as the
   taskpools would hold. *)
let tasks_of_requests rng g =
  Graph.fold_live
    (fun acc v ->
      List.fold_left
        (fun acc (e : Vertex.request_entry) ->
          if Rng.int rng 3 = 0 then
            Dgr_task.Task.Request
              { src = e.Vertex.who; dst = (Vertex.id v); demand = e.Vertex.demand;
                key = e.Vertex.key }
            :: acc
          else acc)
        acc (Vertex.requested v))
    [] g

let e3_venn ?(seed = 7) () =
  let table =
    Table.create ~title:"E3 (Fig 3-3): reachability regions on random request graphs"
      ~columns:
        [
          ("seed", Table.Right);
          ("|V|", Table.Right);
          ("R_v", Table.Right);
          ("R_e", Table.Right);
          ("R_r", Table.Right);
          ("T\\R", Table.Right);
          ("GAR", Table.Right);
          ("GAR∩T", Table.Right);
          ("DL_v", Table.Right);
          ("F", Table.Right);
          ("laws hold", Table.Left);
        ]
  in
  for i = 0 to 9 do
    let rng = Rng.create (seed + (1000 * i)) in
    let spec =
      {
        Builder.live = 60 + Rng.int rng 120;
        garbage = 10 + Rng.int rng 50;
        free_pool = 10;
        avg_degree = 1.5 +. Rng.float rng 1.5;
        cycle_bias = Rng.float rng 0.4;
      }
    in
    let g = Builder.random_with_requests (Rng.split rng) spec in
    let tasks = tasks_of_requests (Rng.split rng) g in
    let snap = Snapshot.take g in
    let sets = Classify.compute snap ~tasks in
    let venn = Classify.venn snap sets in
    let r = sets.Classify.reach in
    (* Structural laws of Fig 3-3. *)
    let union_rs =
      Vid.Set.union r.Reach.r_v (Vid.Set.union r.Reach.r_e r.Reach.r_r)
    in
    let laws =
      Vid.Set.equal union_rs r.Reach.root_reachable
      && Vid.Set.subset sets.Classify.deadlocked r.Reach.r_v
      && Vid.Set.is_empty (Vid.Set.inter sets.Classify.garbage r.Reach.root_reachable)
      && Vid.Set.is_empty (Vid.Set.inter sets.Classify.garbage sets.Classify.free)
    in
    Table.add_row table
      [
        Table.cell_i (seed + (1000 * i));
        Table.cell_i (Snapshot.size snap);
        Table.cell_i venn.Classify.n_vital;
        Table.cell_i venn.Classify.n_eager;
        Table.cell_i venn.Classify.n_reserve;
        Table.cell_i venn.Classify.n_task_only;
        Table.cell_i venn.Classify.n_garbage;
        Table.cell_i venn.Classify.n_garbage_task;
        Table.cell_i venn.Classify.n_deadlocked;
        Table.cell_i venn.Classify.n_free;
        string_of_bool laws;
      ]
  done;
  [ table ]

(* ------------------------------------------------------------------ *)
(* Shared program-running helper for E4/E5/E7/E8.                      *)
(* ------------------------------------------------------------------ *)

type run_stats = {
  completed : bool;
  steps : int;
  total_pause : int;
  max_pause : float;
  cycles : int;
  stw_collections : int;
  reclaimed : int;
  peak_live : int;
  reduction_executed : int;
  purged : int;
}

let run_program ?(max_steps = 600_000) ~config source =
  let g, templates =
    Compile.load_string ~num_pes:(Engine.Config.num_pes config) source
  in
  let e = Engine.create ?recorder:(maybe_recorder config) ~config g templates in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps e in
  write_trace e;
  let m = Engine.metrics e in
  let reclaimed =
    match (Engine.cycle e, Engine.refcount e) with
    | Some c, _ -> Cycle.total_garbage_collected c
    | None, Some rc -> Dgr_baseline.Refcount.reclaimed rc
    | None, None -> Graph.releases g
  in
  ( {
      completed = Engine.finished e;
      steps = (match m.Metrics.completion_step with Some s -> s | None -> Engine.now e);
      total_pause = m.Metrics.total_pause_steps;
      max_pause =
        (if Stats.count m.Metrics.pauses = 0 then 0.0 else Stats.max_value m.Metrics.pauses);
      cycles = m.Metrics.cycles_completed;
      stw_collections = m.Metrics.stw_collections;
      reclaimed;
      peak_live = m.Metrics.peak_live;
      reduction_executed = m.Metrics.reduction_executed;
      purged = m.Metrics.tasks_purged;
    },
    e )

let fmt_steps (s : run_stats) =
  if s.completed then Table.cell_i s.steps else "DNF"

(* ------------------------------------------------------------------ *)
(* E4: concurrent vs stop-the-world vs RC vs none.                     *)
(* ------------------------------------------------------------------ *)

let e4_gc_comparison ?seed:(_ = 1) () =
  let table =
    Table.create
      ~title:
        "E4 (§4): memory management under reduction — completion and mutator pauses (steps)"
      ~columns:
        [
          ("workload", Table.Left);
          ("collector", Table.Left);
          ("completion", Table.Right);
          ("total pause", Table.Right);
          ("max pause", Table.Right);
          ("collections", Table.Right);
          ("reclaimed", Table.Right);
          ("peak live", Table.Right);
        ]
  in
  let heap = Some 12_000 in
  let modes =
    [
      ("none (unbounded)", Engine.No_gc, None);
      ("none (12k heap)", Engine.No_gc, heap);
      ("concurrent (paper)", concurrent ~deadlock_every:0 ~idle_gap:20 (), heap);
      ("stop-the-world", Engine.Stop_the_world { every = 400 }, heap);
      ("refcount", Engine.Refcount, heap);
    ]
  in
  List.iter
    (fun (wname, source) ->
      List.iter
        (fun (mname, gc, heap) ->
          let config = Engine.Config.make ~gc ~heap_size:heap () in
          let stats, e = run_program ~max_steps:300_000 ~config source in
          let collections =
            match gc with
            | Engine.Concurrent _ -> stats.cycles
            | Engine.Stop_the_world _ -> stats.stw_collections
            | Engine.No_gc | Engine.Refcount -> 0
          in
          ignore e;
          Table.add_row table
            [
              wname;
              mname;
              fmt_steps stats;
              Table.cell_i stats.total_pause;
              Printf.sprintf "%.0f" stats.max_pause;
              Table.cell_i collections;
              Table.cell_i stats.reclaimed;
              Table.cell_i stats.peak_live;
            ])
        modes)
    [
      ("fib 14", Prelude.fib 14);
      ("sum∘map∘range 25", Prelude.sum_range 25);
      ("deep speculation", Prelude.speculative_deep 1200 13);
    ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* E5: scaling with the number of PEs.                                 *)
(* ------------------------------------------------------------------ *)

let e5_scaling ?seed:(_ = 1) () =
  let table =
    Table.create ~title:"E5 (§1,§4): decentralized marking scale-out (fib 11, concurrent GC)"
      ~columns:
        [
          ("PEs", Table.Right);
          ("completion", Table.Right);
          ("speedup", Table.Right);
          ("cycles", Table.Right);
          ("marking tasks", Table.Right);
          ("avg cycle span", Table.Right);
          ("remote msgs", Table.Right);
          ("PE visits/step", Table.Right);
        ]
  in
  let base = ref None in
  List.iter
    (fun num_pes ->
      let config =
        Engine.Config.make ~num_pes ~gc:(concurrent ~deadlock_every:0 ~idle_gap:20 ()) ()
      in
      let stats, e = run_program ~config (Prelude.fib 11) in
      let m = Engine.metrics e in
      (if !base = None && stats.completed then base := Some (float_of_int stats.steps));
      let speedup =
        match !base with
        | Some b when stats.completed -> Table.cell_ratio (b /. float_of_int stats.steps)
        | _ -> "-"
      in
      let span =
        if stats.cycles = 0 then "-"
        else Table.cell_f (float_of_int stats.steps /. float_of_int stats.cycles)
      in
      Table.add_row table
        [
          Table.cell_i num_pes;
          fmt_steps stats;
          speedup;
          Table.cell_i stats.cycles;
          Table.cell_i m.Metrics.marking_executed;
          span;
          Table.cell_i m.Metrics.remote_messages;
          Table.cell_f (float_of_int (Engine.pe_visits e) /. float_of_int (Int.max 1 (Engine.now e)));
        ])
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* E6: cyclic garbage — tracing vs reference counting.                 *)
(* ------------------------------------------------------------------ *)

let build_clusters rng g hub ~clusters ~cluster_size =
  (* Half the clusters are chains (acyclic), half are rings (cyclic);
     each hangs off the hub by one edge. Returns (acyclic, cyclic) entry
     lists. *)
  let acyclic = ref [] and cyclic = ref [] in
  for i = 0 to clusters - 1 do
    let entry =
      if i mod 2 = 0 then begin
        let e = Builder.chain g cluster_size in
        acyclic := e :: !acyclic;
        e
      end
      else begin
        let e = Builder.cycle g cluster_size in
        cyclic := e :: !cyclic;
        e
      end
    in
    Vertex.connect (Graph.vertex g hub) entry
  done;
  ignore rng;
  (!acyclic, !cyclic)

let e6_cyclic_garbage ?(seed = 3) () =
  let table =
    Table.create
      ~title:"E6 (§4): reclaiming self-referencing structures — tracing vs reference counts"
      ~columns:
        [
          ("collector", Table.Left);
          ("dropped vertices", Table.Right);
          ("reclaimed", Table.Right);
          ("leaked (cyclic)", Table.Right);
          ("RC messages", Table.Right);
        ]
  in
  let clusters = 40 and cluster_size = 12 in
  let run_mode mname gc =
    let rng = Rng.create seed in
    let g = Graph.create ~num_pes:4 () in
    let hub = Builder.add g Label.If [] in
    let root = Builder.add_root g Label.Ind [ hub ] in
    ignore root;
    let acyclic, cyclic = build_clusters rng g hub ~clusters ~cluster_size in
    let config = Engine.Config.make ~gc ~heap_size:None () in
    let e = Engine.create ~config g empty_registry in
    (* Warm-up: everything reachable, nothing to collect. *)
    let (_ : int) = Engine.run ~max_steps:200 ~stop:(fun _ -> true) e in
    for _ = 1 to 150 do
      Engine.step e
    done;
    let before = Graph.live_count g in
    (* Drop every cluster. *)
    let mut = Engine.mutator e in
    List.iter
      (fun entry -> Dgr_core.Mutator.delete_reference mut ~a:hub ~b:entry)
      (acyclic @ cyclic);
    for _ = 1 to 2_000 do
      Engine.step e
    done;
    let after = Graph.live_count g in
    let reclaimed = before - after in
    let leaked =
      match Engine.refcount e with
      | Some rc -> List.length (Dgr_baseline.Refcount.leaked rc)
      | None ->
        (* For tracing modes, leaked = unreachable-but-live. *)
        let snap = Snapshot.take g in
        let reach = Reach.reachable_from snap [ Graph.root g ] in
        Graph.fold_live
          (fun acc v -> if Vid.Set.mem (Vertex.id v) reach then acc else acc + 1)
          0 g
    in
    let messages =
      match Engine.refcount e with
      | Some rc -> Table.cell_i (Dgr_baseline.Refcount.messages rc)
      | None -> "-"
    in
    Table.add_row table
      [
        mname;
        Table.cell_i (clusters * cluster_size);
        Table.cell_i reclaimed;
        Table.cell_i leaked;
        messages;
      ]
  in
  run_mode "concurrent marking" (concurrent ~deadlock_every:0 ~idle_gap:20 ());
  run_mode "stop-the-world" (Engine.Stop_the_world { every = 300 });
  run_mode "refcount" Engine.Refcount;
  [ table ]

(* ------------------------------------------------------------------ *)
(* E7: irrelevant-task deletion.                                       *)
(* ------------------------------------------------------------------ *)

let e7_irrelevant_tasks ?seed:(_ = 1) () =
  let table =
    Table.create
      ~title:
        "E7 (§3.2, Property 6): containing the irrelevant-task explosion (speculation on)"
      ~columns:
        [
          ("workload", Table.Left);
          ("collector", Table.Left);
          ("completion", Table.Right);
          ("tasks executed", Table.Right);
          ("tasks purged", Table.Right);
          ("peak live", Table.Right);
        ]
  in
  let modes =
    [
      ("concurrent + deletion", concurrent ~deadlock_every:0 ~idle_gap:20 (), Some 16_000);
      ("none (16k heap)", Engine.No_gc, Some 16_000);
      ("none (unbounded)", Engine.No_gc, None);
      ("refcount", Engine.Refcount, Some 16_000);
    ]
  in
  List.iter
    (fun (wname, source) ->
      List.iter
        (fun (mname, gc, heap) ->
          let config = Engine.Config.make ~gc ~heap_size:heap () in
          let stats, _ = run_program ~max_steps:300_000 ~config source in
          Table.add_row table
            [
              wname;
              mname;
              fmt_steps stats;
              Table.cell_i stats.reduction_executed;
              Table.cell_i stats.purged;
              Table.cell_i stats.peak_live;
            ])
        modes)
    [
      ("divergent losing branch", Prelude.divergent_speculation);
      ("expensive losing branch", Prelude.speculative 60);
      ("deep vital side", Prelude.speculative_deep 2500 14);
    ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* E8: dynamic prioritization ablation.                                *)
(* ------------------------------------------------------------------ *)

let e8_priorities ?seed:(_ = 1) () =
  let table =
    Table.create
      ~title:"E8 (§3.2): task-pool policy ablation — time for the vital result (steps)"
      ~columns:
        [
          ("workload", Table.Left);
          ("flat", Table.Right);
          ("by-demand", Table.Right);
          ("dynamic (marking)", Table.Right);
        ]
  in
  let policies = [ Pool.Flat; Pool.By_demand; Pool.Dynamic ] in
  List.iter
    (fun (wname, source) ->
      let cells =
        List.map
          (fun policy ->
            let config =
              Engine.Config.make ~pool_policy:policy
                ~gc:(concurrent ~deadlock_every:0 ~idle_gap:20 ())
                ~heap_size:(Some 20_000) ()
            in
            let stats, _ = run_program ~max_steps:150_000 ~config source in
            fmt_steps stats)
          policies
      in
      Table.add_row table (wname :: cells))
    [
      ("speculative(40)", Prelude.speculative 40);
      ("divergent speculation", Prelude.divergent_speculation);
      ("fib 11", Prelude.fib 11);
    ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* E9: the §6 space optimization — marking tree vs per-PE counters.     *)
(* ------------------------------------------------------------------ *)

let e9_marking_schemes ?seed:(_ = 1) () =
  let table =
    Table.create
      ~title:
        "E9 (§6): marking-tree vs flood-counter bookkeeping (concurrent GC, 4 PEs)"
      ~columns:
        [
          ("workload", Table.Left);
          ("scheme", Table.Left);
          ("completion", Table.Right);
          ("cycles", Table.Right);
          ("marking tasks", Table.Right);
          ("bookkeeping", Table.Left);
          ("reclaimed", Table.Right);
        ]
  in
  List.iter
    (fun (wname, source) ->
      List.iter
        (fun (sname, scheme) ->
          let config =
            Engine.Config.make
              ~gc:(concurrent ~deadlock_every:2 ~idle_gap:20 ())
              ~marking:scheme ()
          in
          let stats, e = run_program ~max_steps:300_000 ~config source in
          (* the cycle "is repeated endlessly": let at least two finish
             after the result so reclamation is comparable *)
          (match Engine.cycle e with
          | Some c when stats.completed ->
            let target = Cycle.cycles_completed c + 2 in
            ignore
              (Engine.run ~max_steps:20_000
                 ~stop:(fun _ -> Cycle.cycles_completed c >= target)
                 e)
          | Some _ | None -> ());
          let reclaimed =
            match Engine.cycle e with
            | Some c -> Cycle.total_garbage_collected c
            | None -> stats.reclaimed
          in
          let cycles =
            match Engine.cycle e with
            | Some c -> Cycle.cycles_completed c
            | None -> stats.cycles
          in
          let m = Engine.metrics e in
          let words =
            match scheme with
            | Dgr_core.Cycle.Tree ->
              Printf.sprintf "2 x |V| = %d" (2 * Graph.vertex_count (Engine.graph e))
            | Dgr_core.Cycle.Flood_counters ->
              Printf.sprintf "2 x PEs = %d" (2 * Engine.Config.num_pes config)
          in
          Table.add_row table
            [
              wname;
              sname;
              fmt_steps stats;
              Table.cell_i cycles;
              Table.cell_i m.Metrics.marking_executed;
              words;
              Table.cell_i reclaimed;
            ])
        [ ("tree (Fig 4-1/5-1)", Dgr_core.Cycle.Tree);
          ("flood counters (§6)", Dgr_core.Cycle.Flood_counters) ])
    [
      ("fib 12", Prelude.fib 12);
      ("sum∘map∘range 20", Prelude.sum_range 20);
      ("speculative(40)", Prelude.speculative 40);
    ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* E10: memory sensitivity — how small a heap can each collector run    *)
(* the same program in? (finite V, §2.2)                                *)
(* ------------------------------------------------------------------ *)

let e10_heap_sweep ?seed:(_ = 1) () =
  let table =
    Table.create
      ~title:"E10 (§2.2): completion (steps) vs heap bound — fib 13, 4 PEs"
      ~columns:
        ([ ("collector", Table.Left) ]
        @ List.map (fun h -> (h, Table.Right)) [ "4k"; "6k"; "9k"; "14k"; "unbounded" ])
  in
  let heaps = [ Some 4_000; Some 6_000; Some 9_000; Some 14_000; None ] in
  List.iter
    (fun (mname, gc) ->
      let cells =
        List.map
          (fun heap ->
            let config = Engine.Config.make ~gc ~heap_size:heap () in
            let stats, _ = run_program ~max_steps:60_000 ~config (Prelude.fib 13) in
            fmt_steps stats)
          heaps
      in
      Table.add_row table (mname :: cells))
    [
      ("none", Engine.No_gc);
      ("concurrent (paper)", concurrent ~deadlock_every:0 ~idle_gap:20 ());
      ("stop-the-world", Engine.Stop_the_world { every = 400 });
      ("refcount", Engine.Refcount);
    ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* E11: fault sweep — marking-cycle length and channel overhead vs      *)
(* message drop rate, reliable delivery over a lossy network.           *)
(* ------------------------------------------------------------------ *)

let e11_fault_sweep ?(seed = 1) () =
  let table =
    Table.create
      ~title:
        "E11: drop rate vs marking-cycle length — fib 11, 4 PEs, concurrent GC, \
         reliable delivery over a lossy channel"
      ~columns:
        [
          ("drop", Table.Left);
          ("completion", Table.Right);
          ("cycles", Table.Right);
          ("avg cycle len", Table.Right);
          ("retransmits", Table.Right);
          ("dropped", Table.Right);
          ("dup-suppressed", Table.Right);
          ("stalls", Table.Right);
          ("result", Table.Left);
        ]
  in
  List.iter
    (fun drop ->
      (* duplicate rides at half the drop rate, plus a little reordering
         and a rare transient PE stall — the full adversary, scaled by
         the sweep variable. drop = 0.0 is the fault-free control. *)
      let faults =
        if drop = 0.0 then Faults.none
        else
          {
            Faults.none with
            Faults.drop;
            duplicate = drop /. 2.0;
            delay = 0.1;
            stall = 0.02;
            fault_seed = seed;
          }
      in
      let config =
        Engine.Config.make ~gc:(concurrent ~deadlock_every:1 ~idle_gap:20 ()) ~faults ()
      in
      let stats, e = run_program ~max_steps:300_000 ~config (Prelude.fib 11) in
      let m = Engine.metrics e in
      Table.add_row table
        [
          Printf.sprintf "%.2f" drop;
          fmt_steps stats;
          Table.cell_i stats.cycles;
          (if stats.cycles = 0 then "-" else Table.cell_i (stats.steps / stats.cycles));
          Table.cell_i m.Metrics.retransmits;
          Table.cell_i m.Metrics.msgs_dropped;
          Table.cell_i m.Metrics.dup_suppressed;
          Table.cell_i m.Metrics.stalls;
          value_to_string (Engine.result e);
        ])
    [ 0.0; 0.05; 0.1; 0.2; 0.3 ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* E12: measured Amdahl serial fraction and speedup vs domain count —    *)
(* the step-phase profiler on the sharding-relevant storm workload. The  *)
(* latency percentiles are deterministic (and must agree across rows —   *)
(* the same simulation runs at every shard count); the steps/sec,        *)
(* speedup, serial-fraction and ceiling columns are wall-clock           *)
(* measurements and vary run to run, the one documented exception to     *)
(* the experiments' determinism claim.                                   *)
(* ------------------------------------------------------------------ *)

let e12_serial_fraction () =
  let table =
    Table.create
      ~title:
        "E12: serial fraction and speedup vs domains — storm-tree-8k, \
         step-phase profiler (steps/sec, speedup, serial-fraction and \
         ceiling columns are wall-clock, non-deterministic)"
      ~columns:
        [
          ("domains", Table.Right);
          ("steps", Table.Right);
          ("lat p50", Table.Right);
          ("lat p99", Table.Right);
          ("steps/sec", Table.Right);
          ("speedup", Table.Right);
          ("execute share", Table.Right);
          ("serial fraction", Table.Right);
          ("amdahl ceiling @8", Table.Right);
        ]
  in
  let base_rate = ref 0.0 in
  List.iter
    (fun domains ->
      let e = Bench.run_for_report ~domains "storm-tree-8k" in
      let m = Engine.metrics e in
      let p = Engine.profile e in
      let share part =
        if p.Profile.total_ns <= 0.0 then 0.0 else part /. p.Profile.total_ns
      in
      let rate =
        if p.Profile.total_ns <= 0.0 then 0.0
        else float_of_int m.Metrics.steps /. (p.Profile.total_ns /. 1e9)
      in
      if domains = 1 then base_rate := rate;
      Table.add_row table
        [
          Table.cell_i domains;
          Table.cell_i m.Metrics.steps;
          Table.cell_i (Dgr_obs.Hist.percentile m.Metrics.lat_e2e 50.0);
          Table.cell_i (Dgr_obs.Hist.percentile m.Metrics.lat_e2e 99.0);
          Printf.sprintf "%.0f" rate;
          (if !base_rate <= 0.0 then "-"
           else Printf.sprintf "x%.2f" (rate /. !base_rate));
          Printf.sprintf "%.1f%%" (100.0 *. share p.Profile.execute_ns);
          Printf.sprintf "%.3f" (Profile.serial_fraction p);
          Printf.sprintf "x%.2f" (Profile.amdahl_speedup p ~domains:8);
        ])
    [ 1; 2; 4; 8 ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* E13: crash sweep — whole-PE crashes with checkpointed re-homing.      *)
(* The machine survives any crash schedule that leaves a survivor: the   *)
(* crashed PE's vertices re-home (a step that crashes two or more PEs    *)
(* first restores each crashed segment from a checkpoint synced before   *)
(* its first crash), but pooled and in-flight tasks                      *)
(* die with the PE, so completion is not expected at higher rates — the  *)
(* table reads recovery latency and re-homing volume against the crash   *)
(* rate.                                                                 *)
(* ------------------------------------------------------------------ *)

let e13_crash_sweep ?(seed = 5) () =
  let table =
    Table.create
      ~title:
        "E13: crash rate vs recovery latency — fib 11, 4 PEs, concurrent GC, \
         checkpointed re-homing (downtime uniform in [1,40])"
      ~columns:
        [
          ("crash", Table.Left);
          ("completion", Table.Right);
          ("crashes", Table.Right);
          ("recoveries", Table.Right);
          ("downtime p50", Table.Right);
          ("downtime max", Table.Right);
          ("rehomed", Table.Right);
          ("lost tasks", Table.Right);
          ("cycles", Table.Right);
        ]
  in
  List.iter
    (fun crash ->
      let faults =
        if crash = 0.0 then Faults.none
        else
          {
            Faults.none with
            Faults.drop = 0.02;
            delay = 0.05;
            crash;
            crash_down_max = 40;
            fault_seed = seed;
          }
      in
      let config =
        Engine.Config.make ~gc:(concurrent ~deadlock_every:1 ~idle_gap:20 ()) ~faults ()
      in
      let stats, e = run_program ~max_steps:40_000 ~config (Prelude.fib 11) in
      let m = Engine.metrics e in
      Table.add_row table
        [
          Printf.sprintf "%.3f" crash;
          fmt_steps stats;
          Table.cell_i m.Metrics.crashes;
          Table.cell_i m.Metrics.recoveries;
          (if Dgr_obs.Hist.count m.Metrics.lat_recovery = 0 then "-"
           else Table.cell_i (Dgr_obs.Hist.percentile m.Metrics.lat_recovery 50.0));
          (if Dgr_obs.Hist.count m.Metrics.lat_recovery = 0 then "-"
           else Table.cell_i (Dgr_obs.Hist.max_value m.Metrics.lat_recovery));
          Table.cell_i m.Metrics.crash_rehomed;
          Table.cell_i m.Metrics.crash_lost_tasks;
          Table.cell_i stats.cycles;
        ])
    [ 0.0; 0.001; 0.002; 0.005; 0.01 ];
  [ table ]

(* ------------------------------------------------------------------ *)

type info = { title : string; paper_ref : string }

(* The single registry every front end enumerates ([dgr experiment],
   [dgr experiment --list], bench/main.ml): adding E12 means adding one
   line here and nothing anywhere else. *)
let all =
  [
    ("e1", { title = "deadlock detection on x = x + 1"; paper_ref = "Fig 3-1" },
     fun () -> e1_deadlock ());
    ("e2", { title = "the four task types"; paper_ref = "Fig 3-2" },
     fun () -> e2_task_types ());
    ("e3", { title = "Venn regions on random graphs"; paper_ref = "Fig 3-3" },
     fun () -> e3_venn ());
    ("e4", { title = "GC comparison"; paper_ref = "§4" },
     fun () -> e4_gc_comparison ());
    ("e5", { title = "PE scaling"; paper_ref = "§1/§4" },
     fun () -> e5_scaling ());
    ("e6", { title = "cyclic garbage"; paper_ref = "§4" },
     fun () -> e6_cyclic_garbage ());
    ("e7", { title = "irrelevant-task deletion"; paper_ref = "§3.2" },
     fun () -> e7_irrelevant_tasks ());
    ("e8", { title = "priority ablation"; paper_ref = "§3.2" },
     fun () -> e8_priorities ());
    ("e9", { title = "marking-scheme ablation"; paper_ref = "§6" },
     fun () -> e9_marking_schemes ());
    ("e10", { title = "heap-bound sweep"; paper_ref = "§2.2" },
     fun () -> e10_heap_sweep ());
    ("e11", { title = "fault sweep (drop rate vs cycle length)"; paper_ref = "§2.1 relaxed" },
     fun () -> e11_fault_sweep ());
    ("e12", { title = "serial fraction and speedup vs domains (step-phase profiler)"; paper_ref = "§1" },
     fun () -> e12_serial_fraction ());
    ("e13", { title = "crash sweep (crash rate vs recovery latency)"; paper_ref = "§2.1 relaxed" },
     fun () -> e13_crash_sweep ());
  ]

let ids = List.map (fun (id, _, _) -> id) all

let describe id =
  match List.find_opt (fun (i, _, _) -> i = id) all with
  | Some (_, info, _) -> Some info
  | None -> None

let run ?trace_dir:dir id =
  let selected =
    if id = "all" then all
    else
      match List.find_opt (fun (i, _, _) -> i = id) all with
      | Some e -> [ e ]
      | None -> invalid_arg (Printf.sprintf "Experiments.run: unknown experiment %S" id)
  in
  trace_dir := dir;
  (match dir with
  | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
  | Some _ | None -> ());
  List.iter
    (fun (eid, _, f) ->
      trace_label := eid;
      trace_counter := 0;
      List.iter Table.print (f ());
      print_newline ())
    selected;
  trace_dir := None
