(* Experiment tables.

   Usage:
     bench/main.exe            -- all experiment tables
     bench/main.exe e4         -- one experiment table
     bench/main.exe tables     -- all experiment tables
     bench/main.exe list       -- registered experiment ids

   The experiment tables regenerate the paper's figures/claims — the set
   comes from the {!Dgr_harness.Experiments.all} registry, so a new
   experiment shows up here with no change to this file (see
   EXPERIMENTS.md). `dgr bench` is the macro suite (whole-machine
   throughput, BENCH.json); perfbench/ is the repository benchmark, whose
   layer ladder times the marking core, store, pools and transport. *)

let () =
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match arg with
  | "all" | "tables" ->
    List.iter (fun (id, _, _) -> Dgr_harness.Experiments.run id) Dgr_harness.Experiments.all
  | "list" ->
    List.iter
      (fun (id, { Dgr_harness.Experiments.title; paper_ref }, _) ->
        Printf.printf "%-4s %s (%s)\n" id title paper_ref)
      Dgr_harness.Experiments.all
  | id -> Dgr_harness.Experiments.run id
