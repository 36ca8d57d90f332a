(* End-to-end reduction runs on the simulator, across GC regimes, PE
   counts, speculation settings and pool policies. *)
open Dgr_graph
open Dgr_sim
open Dgr_lang

let value = Alcotest.testable Label.pp_value Label.equal_value

let run_program ?(config = Engine.Config.default) ?(max_steps = 400_000) source =
  let g, templates =
    Compile.load_string ~num_pes:(Engine.Config.num_pes config) source
  in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps e in
  e

let check_result ?config ?max_steps source expected =
  let e = run_program ?config ?max_steps source in
  Alcotest.check (Alcotest.option value) "result" (Some expected) (Engine.result e);
  e

let test_literal () =
  ignore (check_result "def main = 42;" (Label.V_int 42))

let test_arith () =
  ignore (check_result "def main = (1 + 2 * 3) - 10 / 2;" (Label.V_int 2));
  ignore (check_result "def main = 17 % 5;" (Label.V_int 2));
  ignore (check_result "def main = -(3 + 4);" (Label.V_int (-7)))

let test_comparison_and_logic () =
  ignore (check_result "def main = if 3 < 5 && !(2 == 3) then 1 else 0;" (Label.V_int 1));
  ignore (check_result "def main = if 5 <= 4 || false then 1 else 0;" (Label.V_int 0));
  ignore (check_result "def main = if 7 > 2 then if 2 >= 2 then 11 else 12 else 13;"
            (Label.V_int 11))

let test_let_sharing () =
  ignore (check_result "def main = let x = 6 * 7 in x - x / 2;" (Label.V_int 21))

let test_function_call () =
  ignore (check_result "def double x = x + x; def main = double(double(5));" (Label.V_int 20))

let test_fib () =
  ignore (check_result (Prelude.fib 10) (Label.V_int (Prelude.fib_expected 10)))

let test_mutual_recursion () =
  ignore (check_result (Prelude.mutual 10) (Label.V_int 1));
  ignore (check_result (Prelude.mutual 7) (Label.V_int 0))

let test_lists () =
  ignore (check_result "def main = head([4, 5, 6]);" (Label.V_int 4));
  ignore (check_result "def main = head(tail([4, 5, 6]));" (Label.V_int 5));
  ignore (check_result "def main = if isnil(tail([9])) then 1 else 0;" (Label.V_int 1));
  ignore (check_result "def main = if isnil(nil) then 1 else 0;" (Label.V_int 1))

let test_sum_range () =
  ignore
    (check_result (Prelude.sum_range 12) (Label.V_int (Prelude.sum_range_expected 12)))

let test_shared_speculation () =
  ignore (check_result Prelude.shared (Label.V_int 42))

let all_gc_modes =
  [
    ("no-gc", Engine.No_gc);
    ("concurrent", Engine.Concurrent { deadlock_every = 1; idle_gap = 5 });
    ("concurrent-nodl", Engine.Concurrent { deadlock_every = 0; idle_gap = 5 });
    ("stw", Engine.Stop_the_world { every = 200 });
    ("refcount", Engine.Refcount);
  ]

let test_gc_modes_agree () =
  List.iter
    (fun (name, gc) ->
      let config = Engine.Config.make ~gc () in
      let e = check_result ~config (Prelude.fib 9) (Label.V_int (Prelude.fib_expected 9)) in
      Alcotest.(check (list string)) (name ^ " graph valid") []
        (Validate.check (Engine.graph e)))
    all_gc_modes

let test_pe_counts_agree () =
  List.iter
    (fun num_pes ->
      let config = Engine.Config.make ~num_pes () in
      ignore
        (check_result ~config (Prelude.sum_range 8)
           (Label.V_int (Prelude.sum_range_expected 8))))
    [ 1; 2; 3; 8; 16 ]

let test_policies_agree () =
  List.iter
    (fun policy ->
      let config = Engine.Config.make ~pool_policy:policy () in
      ignore (check_result ~config (Prelude.fib 8) (Label.V_int (Prelude.fib_expected 8))))
    [ Pool.Flat; Pool.By_demand; Pool.Dynamic ]

let test_no_speculation () =
  let config = Engine.Config.make ~speculate_if:false () in
  ignore (check_result ~config (Prelude.fib 9) (Label.V_int (Prelude.fib_expected 9)));
  ignore (check_result ~config Prelude.shared (Label.V_int 42))

let test_speculation_cancels () =
  let e = check_result (Prelude.speculative 40) (Label.V_int 42) in
  let red = Engine.reducer e in
  Alcotest.(check bool) "some speculative work was cancelled or dropped" true
    (red.Dgr_reduction.Reducer.cancels_executed > 0
    || red.Dgr_reduction.Reducer.stale_dropped > 0)

let test_gc_collects_garbage_during_run () =
  let config =
    Engine.Config.make ~gc:(Engine.Concurrent { deadlock_every = 2; idle_gap = 2 }) ()
  in
  let e = check_result ~config (Prelude.fib 12) (Label.V_int (Prelude.fib_expected 12)) in
  match Engine.cycle e with
  | None -> Alcotest.fail "expected a cycle controller"
  | Some c ->
    Alcotest.(check bool) "completed at least one cycle" true
      (Dgr_core.Cycle.cycles_completed c > 0);
    Alcotest.(check bool) "collected garbage concurrently" true
      (Dgr_core.Cycle.total_garbage_collected c > 0);
    Alcotest.(check (list string)) "graph valid after run" []
      (Validate.check (Engine.graph e))

let test_divergent_speculation_still_completes () =
  let config =
    Engine.Config.make ~gc:(Engine.Concurrent { deadlock_every = 0; idle_gap = 5 }) ()
  in
  ignore (check_result ~config ~max_steps:500_000 Prelude.divergent_speculation
            (Label.V_int 7))

let test_deadlock_detected () =
  let config =
    Engine.Config.make ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 5 }) ()
  in
  let g, templates = Compile.load_string Prelude.deadlock in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  let deadlock_found t =
    match Engine.cycle t with
    | Some c -> not (Vid.Set.is_empty (Dgr_core.Cycle.deadlocked_ever c))
    | None -> false
  in
  let (_ : int) = Engine.run ~max_steps:50_000 ~stop:deadlock_found e in
  Alcotest.(check bool) "no result" true (Engine.result e = None);
  (* Let a few more cycles run after first detection: stray in-flight
     responses can keep a vertex task-reachable for one cycle. *)
  let (_ : int) = Engine.run ~max_steps:2_000 e in
  (match Engine.cycle e with
  | Some c ->
    let dl = Dgr_core.Cycle.deadlocked_ever c in
    Alcotest.(check bool) "deadlock detected" false (Vid.Set.is_empty dl);
    (* The deadlocked set must contain the vitally-awaited add vertex. *)
    let has_add =
      Vid.Set.exists
        (fun v -> (Vertex.label (Graph.vertex g v)) = Label.Prim Label.Add)
        dl
    in
    Alcotest.(check bool) "the strict + vertex is deadlocked" true has_add
  | None -> Alcotest.fail "no controller")

let test_division_by_zero_deadlocks () =
  let config =
    Engine.Config.make ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 5 }) ()
  in
  let g, templates = Compile.load_string "def main = 1 / 0;" in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  let deadlock_found t =
    match Engine.cycle t with
    | Some c -> not (Vid.Set.is_empty (Dgr_core.Cycle.deadlocked_ever c))
    | None -> false
  in
  let (_ : int) = Engine.run ~max_steps:50_000 ~stop:deadlock_found e in
  Alcotest.(check bool) "runtime error surfaces as deadlock" true
    (match Engine.cycle e with
    | Some c -> not (Vid.Set.is_empty (Dgr_core.Cycle.deadlocked_ever c))
    | None -> false)

(* The ownership guard on the sharded step: with 4 domains stepping 8
   PEs, every edge-set mutation a worker performs must target a vertex
   homed on the PE it is stepping (vertices born this step are exempt —
   they cannot be visible to anyone else yet). The heavy-fault
   invariant runs step their shards inline on the main domain, so this
   is the test that runs the guard inside worker domains; the run must
   also agree with the sequential engine field-for-field. *)
let test_sharded_ownership () =
  let run domains =
    let config =
      Engine.Config.make ~num_pes:8 ~domains
        ~gc:(Engine.Concurrent { deadlock_every = 4; idle_gap = 5 })
        ()
    in
    let g, templates = Compile.load_string ~num_pes:8 (Prelude.fib 10) in
    let e = Engine.create ~config g templates in
    Engine.enable_ownership_checks e;
    Engine.inject_root_demand e;
    let (_ : int) = Engine.run ~max_steps:400_000 e in
    let m = Engine.metrics e in
    let signature =
      ( Engine.result e,
        Engine.now e,
        m.Metrics.reduction_executed,
        m.Metrics.remote_messages )
    in
    Engine.dispose e;
    signature
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check bool) "result delivered" true
    (match seq with Some (Label.V_int _), _, _, _ -> true | _ -> false);
  Alcotest.(check bool) "sharded run identical to sequential" true (seq = par)

let test_determinism () =
  let run () =
    let e = run_program (Prelude.fib 9) in
    let m = Engine.metrics e in
    (Engine.result e, Engine.now e, m.Metrics.reduction_executed, m.Metrics.remote_messages)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let suite =
  [
    Alcotest.test_case "literal" `Quick test_literal;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "comparisons and logic" `Quick test_comparison_and_logic;
    Alcotest.test_case "let sharing" `Quick test_let_sharing;
    Alcotest.test_case "function calls" `Quick test_function_call;
    Alcotest.test_case "fib" `Quick test_fib;
    Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
    Alcotest.test_case "lists" `Quick test_lists;
    Alcotest.test_case "sum over mapped range" `Quick test_sum_range;
    Alcotest.test_case "shared speculative subexpression" `Quick test_shared_speculation;
    Alcotest.test_case "all GC modes compute the same result" `Quick test_gc_modes_agree;
    Alcotest.test_case "PE counts agree" `Quick test_pe_counts_agree;
    Alcotest.test_case "pool policies agree" `Quick test_policies_agree;
    Alcotest.test_case "speculation off" `Quick test_no_speculation;
    Alcotest.test_case "speculation is cancelled" `Quick test_speculation_cancels;
    Alcotest.test_case "concurrent GC collects during run" `Quick
      test_gc_collects_garbage_during_run;
    Alcotest.test_case "divergent speculation still completes" `Slow
      test_divergent_speculation_still_completes;
    Alcotest.test_case "deadlock detected (fig 3-1)" `Quick test_deadlock_detected;
    Alcotest.test_case "division by zero deadlocks" `Quick test_division_by_zero_deadlocks;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "ownership discipline holds under 4 domains" `Quick
      test_sharded_ownership;
  ]

(* ⊥-recovery (footnote 5): deadlocked operators are rewritten to an
   error value that propagates like any other value. *)
let recover_config =
  Engine.Config.make
    ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 5 })
    ~recover_deadlock:true ()

let run_recovering source =
  let g, templates =
    Compile.load_string ~num_pes:(Engine.Config.num_pes recover_config) source
  in
  let e = Engine.create ~config:recover_config g templates in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps:50_000 e in
  e

let test_recovery_direct () =
  let e = run_recovering "def main = 1 / 0;" in
  Alcotest.(check bool) "error value delivered" true
    (match Engine.result e with Some (Label.V_err _) -> true | _ -> false);
  Alcotest.(check bool) "recovery counted" true
    ((Engine.metrics e).Metrics.deadlocks_recovered > 0)

let test_recovery_propagates () =
  let e = run_recovering "def main = (bottom + 1) * 3;" in
  Alcotest.(check bool) "error contagious through strict ops" true
    (match Engine.result e with Some (Label.V_err _) -> true | _ -> false)

let test_recovery_does_not_poison_winner () =
  let e = run_recovering "def main = if 1 < 2 then 5 else 1 / 0;" in
  Alcotest.(check bool) "losing ⊥ branch recovered without damage" true
    (Engine.result e = Some (Label.V_int 5))

let test_recovery_err_predicate () =
  let e = run_recovering "def main = if bottom then 1 else 2;" in
  Alcotest.(check bool) "undefined predicate poisons the conditional" true
    (match Engine.result e with Some (Label.V_err _) -> true | _ -> false)

let test_no_recovery_by_default () =
  let config =
    Engine.Config.make ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 5 }) ()
  in
  let g, templates = Compile.load_string Prelude.deadlock in
  let e = Engine.create ~config g templates in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps:5_000 ~stop:(fun _ -> false) e in
  Alcotest.(check bool) "detection only" true (Engine.result e = None)

let recovery_suite =
  [
    Alcotest.test_case "recovery delivers an error" `Quick test_recovery_direct;
    Alcotest.test_case "errors propagate" `Quick test_recovery_propagates;
    Alcotest.test_case "winner unaffected by recovered junk" `Quick
      test_recovery_does_not_poison_winner;
    Alcotest.test_case "undefined predicate" `Quick test_recovery_err_predicate;
    Alcotest.test_case "no recovery unless enabled" `Quick test_no_recovery_by_default;
  ]
