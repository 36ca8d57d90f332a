(* The macro-benchmark harness and the engine differential.

   [golden_engine.txt] holds 21 mixed scenarios — workloads x collectors
   x machine shapes x fault planes, line 20 with whole-PE crashes — each
   summarized as one line of end state plus the MD5 of the full event
   trace. The fixture was
   regenerated once when the engine became sharded (per-PE RNG streams,
   striped partitioned allocation, and barrier-deferred controller tasks
   moved every schedule); since then regenerating the lines and diffing
   byte-for-byte pins the engine to bit-identical semantics: same live
   sets, same deadlock verdicts, same metrics, same traces.

   The same fixture doubles as the cross-domain differential: the lines
   must come out byte-identical when the machine is sharded across 2 and
   4 OCaml domains — live sets, verdicts, digests and traces may never
   depend on how many domains stepped the PEs. *)

let read_lines path = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)

let check_golden ?domains () =
  let expected = List.filter (fun l -> l <> "") (read_lines "golden_engine.txt") in
  let actual = Dgr_harness.Bench.golden_lines ?domains () in
  Alcotest.(check int) "scenario count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "golden line" e a) expected actual

let test_golden_differential () = check_golden ()

let test_golden_domains_2 () = check_golden ~domains:2 ()

let test_golden_domains_4 () = check_golden ~domains:4 ()

(* A deterministic BENCH.json is byte-reproducible: the simulation fields
   are replayed exactly and the wall-clock fields are zeroed. *)
let test_bench_json_deterministic () =
  let subset =
    [ "fib-12-concurrent"; "fib-12-faults"; "fib-12-crash"; "storm-tree-8k" ]
  in
  let run () =
    Dgr_harness.Bench.(
      to_json ~mode:"smoke" ~deterministic:true
        (run_suite ~only:subset ~smoke:true ~deterministic:true ()))
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical across runs" a b;
  Alcotest.(check bool) "carries schema_version" true
    (String.length a > 0
    && String.sub a 0 (String.length "{\"schema_version\":")
       = "{\"schema_version\":")

let test_rates_roundtrip () =
  let rows =
    Dgr_harness.Bench.run_suite ~only:[ "fib-12-concurrent" ] ~smoke:true
      ~deterministic:false ()
  in
  let json = Dgr_harness.Bench.to_json ~mode:"smoke" ~deterministic:false rows in
  match Dgr_harness.Bench.scenario_rates json with
  | [ ("fib-12-concurrent", sps) ] ->
    Alcotest.(check bool) "positive steps/sec parsed back" true (sps > 0.0);
    (* the fresh rows cannot regress against their own baseline *)
    Alcotest.(check int) "no self-regression" 0
      (List.length
         (Dgr_harness.Bench.regressions ~threshold:0.2 ~baseline:json rows))
  | other ->
    Alcotest.failf "expected one parsed scenario, got %d" (List.length other)

(* The sequential-vs-parallel table flags a scenario whose digests
   differ; [dgr bench --domains N] fails on that flag. *)
let test_speedup_table_flags_mismatch () =
  let seq =
    Dgr_harness.Bench.run_suite ~only:[ "fib-12-concurrent" ] ~smoke:true
      ~deterministic:true ()
  in
  let flags par =
    List.map (fun (name, _, _, agree) -> (name, agree))
      (Dgr_harness.Bench.speedup_table ~seq ~par)
  in
  Alcotest.(check (list (pair string bool)))
    "equal digests agree" [ ("fib-12-concurrent", true) ] (flags seq);
  let forged = List.map (fun r -> { r with Dgr_harness.Bench.digest = "forged" }) seq in
  Alcotest.(check (list (pair string bool)))
    "a differing digest is flagged" [ ("fib-12-concurrent", false) ] (flags forged)

let suite =
  [
    Alcotest.test_case "hot-path rewrite is bit-identical (20 goldens)" `Slow
      test_golden_differential;
    Alcotest.test_case "sharded engine is bit-identical at 2 domains" `Slow
      test_golden_domains_2;
    Alcotest.test_case "sharded engine is bit-identical at 4 domains" `Slow
      test_golden_domains_4;
    Alcotest.test_case "deterministic BENCH.json is byte-reproducible" `Quick
      test_bench_json_deterministic;
    Alcotest.test_case "baseline rates round-trip through BENCH.json" `Quick
      test_rates_roundtrip;
    Alcotest.test_case "speedup table flags a digest mismatch" `Quick
      test_speedup_table_flags_mismatch;
  ]
