let () =
  Alcotest.run "dgr"
    [
      ("util", T_util.suite);
      ("graph", T_graph.suite);
      ("store", T_store.suite);
      ("task", T_task.suite);
      ("lang", T_lang.suite);
      ("marking", T_marking.suite);
      ("marking-negative", T_marking.negative_suite);
      ("mutator", T_mutator.suite);
      ("cycle", T_cycle.suite);
      ("epoch", T_epoch.suite);
      ("flood", T_flood.suite);
      ("analysis", T_analysis.suite);
      ("baseline", T_baseline.suite);
      ("sim", T_sim.suite);
      ("obs", T_obs.suite);
      ("hist", T_hist.suite);
      ("jitter", T_sim.jitter_suite);
      ("faults", T_faults.suite);
      ("checkpoint", T_checkpoint.suite);
      ("crash", T_crash.suite);
      ("reduction", T_reduction.suite);
      ("recovery", T_reduction.recovery_suite);
      ("properties", T_properties.suite);
      ("theorems", T_theorems.suite);
      ("merge", T_merge.suite);
      ("bench", T_bench.suite);
    ]
