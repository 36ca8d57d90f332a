(* The benchmark's four workloads. Each is made from the seed alone — the
   machine receives only the generated graph, program, jitter stream or
   fault schedule — and each stresses a different layer, so a gain on one
   layer shows on the workload that exercises it and leaves the others
   unchanged:

   - storm-tree: marking- and transport-bound (tree-scheme mark waves
     over a large live set, almost no reduction);
   - storm-flood: the same graph under the flood scheme, which uses the
     marking and transport layers differently (counters, termination
     credits on frames, more coalescing);
   - fib-conc: reduction- and graph-write-heavy (vertex births and
     frees), light steps, so the per-step barrier dominates at 2 domains;
   - fib-lossy: the only workload on the serial fault path (reliable
     delivery, checkpoint sync and restore, crash re-homing). *)

open Dgr_graph
open Dgr_sim
open Dgr_lang

type t = {
  name : string;
  inputs : int -> Graph.t * Dgr_reduction.Template.registry;
      (** the generated graph (and templates) for an input seed *)
  config : seed:int -> domains:int -> Engine.config;
  prime : Engine.t -> unit;
  steps : int option;  (** per machine: [Some n] exactly [n] steps, [None] to completion *)
  machines : int;  (** machines run back to back in one rep, each from its own input seed *)
  expected : int option;  (** the program's result, when it has one *)
}

let max_steps = 400_000

(* The input seed of machine [machine] of panel input [input] in a run
   seeded [seed]. Hashing keeps neighbouring run seeds from sharing
   inputs. *)
let input_seed ~seed ~input ~machine = Hashtbl.hash (seed, input, machine)

let concurrent idle_gap = Engine.Concurrent { deadlock_every = 1; idle_gap }

(* An [Ind] vertex whose only argument is itself forwards a request to
   itself forever. Priming one turns the run into a different regime (one
   reduction task circulating for the whole run), which a fifth of random
   graphs would otherwise hit, so priming skips them. *)
let black_hole g v =
  Graph.label g v = Label.Ind && Graph.children g v = [ v ]

(* Demand alone dies out quickly on a placeholder graph; requests on every
   8th live vertex keep the pools busy while the collector works. *)
let prime_storm e =
  let g = Engine.graph e in
  Engine.inject_root_demand e;
  List.iteri
    (fun i v ->
      if i mod 8 = 0 && not (black_hole g v) then
        Engine.inject e (Dgr_task.Task.request v Demand.Eager))
    (Graph.live_vids g)

let storm ~name ~marking ~live ~steps =
  let spec =
    { Builder.live; garbage = live / 4; free_pool = 64; avg_degree = 2.5; cycle_bias = 0.15 }
  in
  {
    name;
    inputs =
      (fun seed ->
        ( Builder.random ~num_pes:8 (Dgr_util.Rng.create seed) spec,
          Dgr_reduction.Template.create_registry () ));
    config =
      (fun ~seed ~domains ->
        Engine.Config.make ~num_pes:8 ~gc:(concurrent 30) ~heap_size:None ~marking ~seed
          ~domains ());
    prime = prime_storm;
    steps = Some steps;
    machines = 1;
    expected = None;
  }

(* The lossy channel of the crash-survival scenario. A crash loses the
   reduction tasks on the crashed PE, so the program stops making
   progress at a random point and the rest of a long run only collects
   whatever graph was left — a different amount per seed. A rep therefore
   runs many short machines, each from the start of the program, so every
   rep averages the same mix of live reduction, crashes and recovery. *)
let lossy_faults ~seed =
  {
    Faults.none with
    Faults.drop = 0.02;
    duplicate = 0.01;
    delay = 0.02;
    stall = 0.01;
    crash = 0.004;
    crash_down_max = 40;
    fault_seed = seed;
  }

let fib ~pes n _seed = Compile.load_string ~num_pes:pes (Prelude.fib n)

(* [smoke] keeps every workload's shape and checks but shrinks it to a
   fraction of a second. *)
let all ~smoke =
  let storm_live, storm_steps = if smoke then (800, 300) else (8_000, 10_000) in
  let fib_n = if smoke then 10 else 16 in
  let lossy_machines = if smoke then 4 else 100 in
  [
    storm ~name:"storm-tree" ~marking:Dgr_core.Cycle.Tree ~live:storm_live ~steps:storm_steps;
    storm ~name:"storm-flood" ~marking:Dgr_core.Cycle.Flood_counters ~live:storm_live
      ~steps:storm_steps;
    {
      name = "fib-conc";
      inputs = fib ~pes:8 fib_n;
      config =
        (fun ~seed ~domains ->
          Engine.Config.make ~num_pes:8 ~gc:(concurrent 50) ~jitter:0.1 ~seed ~domains ());
      prime = Engine.inject_root_demand;
      steps = None;
      machines = 1;
      expected = Some (Prelude.fib_expected fib_n);
    };
    {
      name = "fib-lossy";
      inputs = fib ~pes:4 12;
      config =
        (fun ~seed ~domains ->
          Engine.Config.make ~num_pes:4 ~gc:(concurrent 50) ~faults:(lossy_faults ~seed) ~seed
            ~domains ());
      prime = Engine.inject_root_demand;
      steps = Some 300;
      machines = lossy_machines;
      expected = None;
    };
  ]
