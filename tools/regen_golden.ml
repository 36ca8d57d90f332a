(* Regenerate the differential fixture: prints the 21 golden lines to
   stdout (redirect into test/golden_engine.txt). With an integer
   argument, runs the fixture at that shard count instead — diffing the
   output at different counts is the quickest cross-domain determinism
   check outside the test suite:

     dune exec tools/regen_golden.exe > test/golden_engine.txt
     dune exec tools/regen_golden.exe -- 4 | diff test/golden_engine.txt - *)
let () =
  let domains =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1
  in
  List.iter print_endline (Dgr_harness.Bench.golden_lines ~domains ())
