(* One repetition of a workload: for each of the workload's machines, set
   it up, step it with the benchmark's own [Engine.step] loop, check the
   outcome and dispose it. The loop is closed with one client — the next
   machine starts only after this one has been checked and disposed. *)

open Dgr_graph
open Dgr_sim

type t = {
  domains : int;
  steps : int;
  wall_s : float;  (** host time of the step loops alone *)
  minor_words : float;  (** this domain's minor-heap words over the step loops *)
  heap_words : int;
      (** live words after a full major GC at the end of a machine, before
          its dispose; averaged over the machines sampled ({!heap_sampled}),
          0 at --domains 2 *)
  lat : Dgr_obs.Hist.t;  (** reduction-task end-to-end latency, simulated steps *)
  cycles : int;  (** collection cycles completed *)
  digest : string;  (** MD5 of the deterministic end states *)
  failures : string list;
}

let setup ?spans (w : Workloads.t) ~seed ~domains =
  let g, templates = Spans.span spans "setup.build" (fun () -> w.inputs seed) in
  let e =
    Spans.span spans "setup.create" (fun () ->
        Engine.create ~config:(w.config ~seed ~domains) g templates)
  in
  Spans.span spans "setup.prime" (fun () -> w.prime e);
  e

(* Host seconds per setup (inputs + [Engine.create] + prime), timed over
   a batch of setups summing to at least 100 ms so that millisecond-scale
   setups repeat enough to be measured. *)
let time_setup w ~seed =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let rec go n =
    Engine.dispose (setup w ~seed ~domains:1);
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed >= 0.1 then elapsed /. float_of_int n else go (n + 1)
  in
  go 1

let run_steps ?spans (w : Workloads.t) e =
  let limit = Option.value w.steps ~default:Workloads.max_steps in
  let to_completion = Option.is_none w.steps in
  let n = ref 0 in
  while !n < limit && not (to_completion && Engine.finished e) do
    (match spans with
    | None -> Engine.step e
    | Some sp ->
      let i = Spans.enter sp "engine.step" in
      Engine.step e;
      Spans.leave sp i);
    incr n
  done;
  !n

(* No vertex reachable from the root or from a pending reduction task
   may be on the free list: the collector's safety property, checked
   against the stop-the-world reachability oracle. *)
let check_reach e =
  let snap = Snapshot.take (Engine.graph e) in
  let r = Dgr_analysis.Reach.compute snap ~tasks:(Engine.pending_reduction_tasks e) in
  let freed =
    Vid.Set.filter
      (fun v -> (Snapshot.vertex snap v).Snapshot.free)
      (Vid.Set.union r.root_reachable r.task_reachable)
  in
  if Vid.Set.is_empty freed then []
  else
    [
      Printf.sprintf "%d reachable vertices are free (first v%d)" (Vid.Set.cardinal freed)
        (Vid.Set.min_elt freed);
    ]

let check_result (w : Workloads.t) e =
  match w.expected with
  | None -> []
  | Some want -> (
    match Engine.result e with
    | Some (Label.V_int got) when got = want -> []
    | Some v -> [ Format.asprintf "result %a, expected %d" Label.pp_value v want ]
    | None -> [ Printf.sprintf "no result after %d steps" (Engine.now e) ])

(* Everything the run's semantics determine: equal digests mean the
   machines ended in the same state having done the same work. *)
let digest e =
  let live = String.concat "," (List.map Vid.to_string (Graph.live_vids (Engine.graph e))) in
  let result =
    match Engine.result e with
    | Some v -> Format.asprintf "%a" Label.pp_value v
    | None -> "-"
  in
  Printf.sprintf "%d|%s|%s|%s" (Engine.now e) live result (Metrics.to_json (Engine.metrics e))

(* The live heap is read at --domains 1 only, the count the end-to-end
   metric uses. A full major GC after every machine would take a fifth of
   a fib-lossy rep's 100 short machines' time, so it is sampled on at
   most 50 machines spread over the rep. *)
let heap_sampled (w : Workloads.t) ~domains machine =
  domains = 1 && machine mod Int.max 1 (w.machines / 50) = 0

(* [inspect] sees every machine after its checks, before dispose. *)
let run ?spans ?(inspect = ignore) (w : Workloads.t) ~seed ~input ~domains =
  Option.iter (fun sp -> Spans.start_rep sp ~lane:domains) spans;
  let top = Option.map (fun sp -> Spans.enter sp "rep") spans in
  let lat = Dgr_obs.Hist.create () in
  let steps = ref 0 and wall = ref 0.0 and words = ref 0.0 and cycles = ref 0 in
  let heap = ref 0 and heap_samples = ref 0 and failures = ref [] and digests = Buffer.create 256 in
  for machine = 0 to w.machines - 1 do
    let seed = Workloads.input_seed ~seed ~input ~machine in
    Gc.full_major ();
    let e = setup ?spans w ~seed ~domains in
    let mw0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let n, crashed =
      try (run_steps ?spans w e, [])
      with exn -> (Engine.now e, [ "exception: " ^ Printexc.to_string exn ])
    in
    wall := !wall +. (Unix.gettimeofday () -. t0);
    words := !words +. (Gc.minor_words () -. mw0);
    steps := !steps + n;
    let fails =
      crashed @ check_result w e @ Spans.span spans "check.reach" (fun () -> check_reach e)
    in
    failures := !failures @ List.map (Printf.sprintf "machine %d: %s" machine) fails;
    Buffer.add_string digests (Digest.string (digest e));
    let m = Engine.metrics e in
    cycles := !cycles + m.Metrics.cycles_completed;
    Dgr_obs.Hist.absorb ~into:lat m.Metrics.lat_e2e;
    if heap_sampled w ~domains machine then begin
      Gc.full_major ();
      heap := !heap + (Gc.quick_stat ()).Gc.live_words;
      incr heap_samples
    end;
    inspect e;
    Engine.dispose e
  done;
  Option.iter (fun sp -> Option.iter (Spans.leave sp) top) spans;
  {
    domains;
    steps = !steps;
    wall_s = !wall;
    minor_words = !words;
    heap_words = (if !heap_samples = 0 then 0 else !heap / !heap_samples);
    lat;
    cycles = !cycles;
    digest = Digest.to_hex (Digest.string (Buffer.contents digests));
    failures = !failures;
  }
