(* The engine's worker pool: the spin-then-park handoff between the main
   domain and the shard workers. Every test compares end states against
   the single-domain run of the same machine — whether a job ran on a
   spinning worker, on a parked-then-woken one or inline may never show
   in the bytes — and bounds the run's wall time, so a lost wake-up fails
   as a timeout instead of passing by luck. *)
open Dgr_sim
open Dgr_graph
open Dgr_lang

let engine ?(gc = Engine.Concurrent { deadlock_every = 1; idle_gap = 20 }) ~domains prog =
  let config = Engine.Config.make ~num_pes:8 ~domains ~gc ~jitter:0.1 ~seed:5 () in
  let g, templates = Compile.load_string ~num_pes:8 prog in
  Engine.create ~config g templates

(* A fib's expansions allocate on the PE that expands them, so its work
   stays on its root's PE: at 8 PEs and 2 domains fib's root sits on
   shard 0. Two fibs, added, start on PEs of different shards, so both
   shards have work on most steps and the step forks. *)
let fib_engine ?gc ~domains n = engine ?gc ~domains (Prelude.fib n)

let spread n =
  Printf.sprintf
    "def fib n = if n < 2 then n else fib(n - 1) + fib(n - 2);\ndef main = fib(%d) + fib(%d);" n n

let spread_engine ?gc ~domains n = engine ?gc ~domains (spread n)

(* Everything the run's semantics determine: clock, result, live set and
   every counter and histogram. *)
let digest e =
  let result =
    match Engine.result e with Some v -> Format.asprintf "%a" Label.pp_value v | None -> "-"
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%s|%s|%s" (Engine.now e) result
          (String.concat "," (List.map Vid.to_string (Graph.live_vids (Engine.graph e))))
          (Metrics.to_json (Engine.metrics e))))

let finish e =
  let (_ : int) = Engine.run ~max_steps:200_000 e in
  Alcotest.(check bool) "run finished" true (Engine.finished e);
  let d = digest e in
  Engine.dispose e;
  d

let run_to_end ~domains n =
  let e = spread_engine ~domains n in
  Engine.inject_root_demand e;
  finish e

let handoffs e = (Engine.profile e).Profile.handoffs

(* Step [e] until it has made more than [n] handoffs (the first spawns
   the worker pool). *)
let step_past_handoffs e n =
  let i = ref 0 in
  while handoffs e <= n && !i < 10_000 do
    Engine.step e;
    incr i
  done;
  Alcotest.(check bool) (Printf.sprintf "a handoff past %d" n) true (handoffs e > n)

(* Fails the test if [f] takes longer than [limit] seconds of wall time. *)
let within ~limit what f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  if dt > limit then Alcotest.failf "%s took %.1f s (limit %.0f s)" what dt limit;
  r

(* Far longer than the pool's spin budget (a few ms of relaxes), so a
   worker that was spinning has parked by the time the main domain
   publishes again. *)
let past_spin_budget () = Unix.sleepf 0.05

(* The profile counts the parks, and a machine without a pool has none. *)
let test_park_and_wake () =
  let one = spread_engine ~domains:1 11 in
  Engine.inject_root_demand one;
  let expected = finish one in
  let p1 = Engine.profile one in
  Alcotest.(check (pair int int)) "1 domain: no parks" (0, 0)
    (p1.Profile.main_parks, p1.Profile.worker_parks);
  let e = spread_engine ~domains:2 11 in
  Engine.inject_root_demand e;
  let slept = ref false in
  let got =
    within ~limit:60.0 "park-and-wake run" (fun () ->
        (* idle gaps early on, while the machine is busy on every PE *)
        let i = ref 0 in
        while !i < 2_000 && not (Engine.finished e) do
          Engine.step e;
          incr i;
          if !i mod 400 = 0 then begin
            past_spin_budget ();
            slept := true
          end
        done;
        finish e)
  in
  Alcotest.(check string) "2-domain run with parked workers = 1-domain run" expected got;
  Alcotest.(check bool) "a gap past the spin budget" true !slept;
  Alcotest.(check bool) "its worker parks were counted" true
    ((Engine.profile e).Profile.worker_parks > 0)

let test_dispose_states () =
  (* never stepped: no workers were spawned *)
  let e = spread_engine ~domains:2 8 in
  Engine.dispose e;
  (* a worker still spinning: dispose right after a parallel step *)
  let e = spread_engine ~domains:2 8 in
  Engine.inject_root_demand e;
  step_past_handoffs e 0;
  Engine.dispose e;
  (* a worker parked *)
  step_past_handoffs e (handoffs e);
  past_spin_budget ();
  Engine.dispose e;
  (* twice; the disposed engine respawns its pool on the next step and
     still ends in the 1-domain run's state *)
  Engine.dispose e;
  let got = finish e in
  Engine.dispose e;
  Alcotest.(check string) "disposed and respawned = 1-domain run" (run_to_end ~domains:1 8) got;
  (* a 1-domain engine has no pool to dispose *)
  let e = spread_engine ~domains:1 8 in
  Engine.step e;
  Engine.dispose e;
  Engine.dispose e

(* More domains than a 2-core host has takes the park-only path (a
   larger host spins); either way the bytes match and the run finishes
   in bounded time. *)
let test_oversubscribed () =
  let expected = run_to_end ~domains:1 11 in
  let got =
    within ~limit:60.0 "4-domain run" (fun () ->
        let e = spread_engine ~domains:4 11 in
        Engine.inject_root_demand e;
        step_past_handoffs e 0;
        finish e)
  in
  Alcotest.(check string) "4-domain run = 1-domain run" expected got

(* An idle machine runs its empty shards inline: 20k steps back to
   back, with a gap past the spin budget in the middle, publish no
   generation. Then the program runs, forking, and must end as the
   1-domain twin. *)
let test_empty_generations () =
  let run domains =
    let e = spread_engine ~gc:Engine.No_gc ~domains 8 in
    for i = 1 to 20_000 do
      Engine.step e;
      if domains > 1 && i = 10_000 then past_spin_budget ()
    done;
    Alcotest.(check int) "idle steps hand nothing off" 0 (handoffs e);
    Engine.inject_root_demand e;
    if domains > 1 then step_past_handoffs e 0;
    finish e
  in
  let expected = run 1 in
  let got = within ~limit:60.0 "20k empty generations" (fun () -> run 2) in
  Alcotest.(check string) "idle then busy 2-domain run = 1-domain run" expected got

(* A fib keeps its work on shard 0 (see [fib_engine]): at 2 domains
   no step has two busy shards, so no job is handed to a worker — none is
   even spawned — and the restructure passes, over one busy home, stay
   inline too. The bytes are the 1-domain run's. *)
let test_one_busy_shard () =
  let one = fib_engine ~domains:1 12 in
  Engine.inject_root_demand one;
  let expected = finish one in
  let e = fib_engine ~domains:2 12 in
  Engine.inject_root_demand e;
  let got = finish e in
  let p = Engine.profile e in
  let per_pe = Engine.executed_per_pe e in
  let on_shard lo hi = Array.fold_left ( + ) 0 (Array.sub per_pe lo (hi - lo)) in
  Alcotest.(check bool)
    (Printf.sprintf "the work sits on shard 0 (%d tasks on PEs 0-3, %d on 4-7)" (on_shard 0 4)
       (on_shard 4 8))
    true
    (on_shard 0 4 > 10 * on_shard 4 8);
  Alcotest.(check bool) "cycles completed" true
    ((Engine.metrics e).Metrics.cycles_completed > 0);
  Alcotest.(check (pair int int)) "no handoff, no worker park" (0, 0)
    (p.Profile.handoffs, p.Profile.worker_parks);
  Alcotest.(check string) "2-domain run = 1-domain run" expected got

let suite =
  [
    Alcotest.test_case "parked workers wake; bytes = 1 domain" `Quick test_park_and_wake;
    Alcotest.test_case "dispose: no workers, spinning, parked, twice" `Quick
      test_dispose_states;
    Alcotest.test_case "oversubscribed 4-domain run: bytes = 1 domain" `Quick
      test_oversubscribed;
    Alcotest.test_case "back-to-back empty generations" `Quick test_empty_generations;
    Alcotest.test_case "work on one shard: no worker, no handoff; bytes = 1 domain" `Quick
      test_one_busy_shard;
  ]
