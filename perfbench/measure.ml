(* Scheduling reps and reducing them to metrics.

   Reps go round-robin: each round visits every selected workload at
   --domains 1 and 2 (alternating which goes first), so all workloads and
   both domain counts sample the same host-speed windows. Round [r] runs
   panel input [r mod panel]: a run covers a fixed panel of inputs derived
   from its seed, and the simulated metrics are pooled over that panel, so
   they neither hang on a single generated input nor depend on how many
   rounds the host was fast enough to fit in. Reps of the same input, at
   either domain count, must end in the same state. *)

let now = Unix.gettimeofday

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), so quartiles here match the ones used to judge spread. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  match ld with
  | 0 -> (nan, nan, nan)
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
    let m = ld + 1 in
    let q i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

type metric = { name : string; unit_ : string; values : float list }

type result = {
  workload : string;
  attempted : int;
  failures : string list;  (** one entry per failed rep *)
  metrics : metric list;
  extra : metric list;  (** printed and written to results files, not reported *)
}

(* Call [f round] until at least [min_rounds] rounds ran and another
   round of the last one's length would overrun [seconds]. *)
let rounds ~min_rounds ~seconds f =
  let start = now () in
  let rec go r last =
    if r < min_rounds || now () -. start +. last <= seconds then begin
      let t0 = now () in
      f r;
      go (r + 1) (now () -. t0)
    end
  in
  go 0 0.0

(* Per-workload bookkeeping shared by both kinds of run. *)
type book = {
  w : Workloads.t;
  mutable attempted : int;
  mutable failed : string list;
  digests : (int, string) Hashtbl.t;  (** panel input -> end-state digest *)
}

let book w = { w; attempted = 0; failed = []; digests = Hashtbl.create 8 }

let record b ~input (r : Rep.t) =
  b.attempted <- b.attempted + 1;
  let mismatch =
    match Hashtbl.find_opt b.digests input with
    | None ->
      Hashtbl.add b.digests input r.digest;
      []
    | Some d when d = r.digest -> []
    | Some _ -> [ "end-state digest differs from an earlier rep of the same input" ]
  in
  match mismatch @ r.failures with
  | [] -> ()
  | why ->
    b.failed <-
      Printf.sprintf "%s input %d at --domains %d: %s" b.w.name input r.domains
        (String.concat "; " why)
      :: b.failed

let sps (r : Rep.t) = float_of_int r.steps /. r.wall_s

let domain_order r = if r mod 2 = 0 then [ 1; 2 ] else [ 2; 1 ]

(* What the untraced run keeps of a rep. The rep's latency histogram is
   pooled or dropped at once, so the live heap the benchmark measures does
   not grow with the reps it has already run. *)
type sample = { domains : int; rate : float; words : float; heap_mb : float; cal : int }

(* Simulated metrics repeat exactly, so they are pooled once over the
   panel: the first single-domain rep of every input. *)
type sim = {
  lat : Dgr_obs.Hist.t;
  mutable steps : int;
  mutable cycles : int;
  seen : (int, unit) Hashtbl.t;  (** inputs already pooled *)
}

(* The untraced run: every end-to-end metric. Host times are rescaled by
   the host slowdown around each timed item ({!Host}); the raw readings
   are kept as extras. *)
let end_to_end ~panel ~seconds ~seed workloads =
  let host = Host.create () in
  let runs =
    List.map
      (fun w ->
        ( book w,
          { lat = Dgr_obs.Hist.create (); steps = 0; cycles = 0; seen = Hashtbl.create 8 },
          ref [],
          ref [] ))
      workloads
  in
  rounds ~min_rounds:panel ~seconds (fun r ->
      let input = r mod panel in
      List.iter
        (fun (b, sim, setups, samples) ->
          let w = b.w in
          let cal = Host.mark host in
          let setup_seed = Workloads.input_seed ~seed ~input ~machine:0 in
          setups := (Rep.time_setup w ~seed:setup_seed, cal) :: !setups;
          List.iter
            (fun domains ->
              let cal = Host.mark host in
              let rep = Rep.run w ~seed ~input ~domains in
              record b ~input rep;
              if domains = 1 && not (Hashtbl.mem sim.seen input) then begin
                Hashtbl.add sim.seen input ();
                Dgr_obs.Hist.absorb ~into:sim.lat rep.lat;
                sim.steps <- sim.steps + rep.steps;
                sim.cycles <- sim.cycles + rep.cycles
              end;
              samples :=
                {
                  domains;
                  rate = sps rep;
                  words = rep.minor_words /. float_of_int rep.steps;
                  heap_mb = float_of_int rep.heap_words *. 8e-6;
                  cal;
                }
                :: !samples)
            (domain_order r))
        runs);
  let slow = Host.finish host in
  List.map
    (fun (b, sim, setups, samples) ->
      let at d = List.filter (fun s -> s.domains = d) !samples in
      let rate d adjust = List.map (fun s -> s.rate *. adjust (slow s.cal)) (at d) in
      let setup adjust = List.map (fun (t, cal) -> t /. adjust (slow cal)) !setups in
      let scaled slow = slow and raw _ = 1.0 in
      let pct q = [ float_of_int (Dgr_obs.Hist.percentile sim.lat q) ] in
      let m name unit_ values = { name; unit_; values } in
      {
        workload = b.w.name;
        attempted = b.attempted;
        failures = List.rev b.failed;
        metrics =
          [
            m "steps_per_sec" "1/s" (rate 1 scaled);
            m "steps_per_sec_2d" "1/s" (rate 2 scaled);
            m "setup_s" "s" (setup scaled);
            m "alloc_words_per_step" "words" (List.map (fun s -> s.words) (at 1));
            m "live_heap_mb" "MB" (List.map (fun s -> s.heap_mb) (at 1));
            m "gc_cycle_steps" "steps"
              [ (if sim.cycles = 0 then 0.0
                 else float_of_int sim.steps /. float_of_int sim.cycles) ];
            m "sim_lat_p99_steps" "steps" (pct 99.0);
          ];
        extra =
          [
            m "steps_per_sec_raw" "1/s" (rate 1 raw);
            m "steps_per_sec_2d_raw" "1/s" (rate 2 raw);
            m "setup_s_raw" "s" (setup raw);
            m "host_slowdown" "x" (List.map (fun s -> slow s.cal) !samples);
            m "sim_lat_p50_steps" "steps" (pct 50.0);
            m "sim_lat_samples" "count" [ float_of_int (Dgr_obs.Hist.count sim.lat) ];
          ];
      })
    runs

(* The traced run: every per-layer metric. A round is an untraced
   single-domain rep (operation counts, phase profile, the baseline for
   the tracing overhead), traced reps at --domains 1 and 2 (step spans)
   and the ladder. Spans of the first round are kept in [spans] for the
   trace file; later rounds record into a scratch recorder. *)
let per_layer ?ladder_min_s ~panel ~seconds ~seed ~spans workloads =
  let books = List.map book workloads in
  let values = Hashtbl.create 64 and names = Hashtbl.create 8 in
  rounds ~min_rounds:1 ~seconds (fun r ->
      let input = r mod panel in
      let sp = if r = 0 then spans else Spans.create () in
      List.iter
        (fun b ->
          let w = b.w in
          let acc = Layers.create () in
          let untraced () =
            let rep = Rep.run ~inspect:(Layers.add acc) w ~seed ~input ~domains:1 in
            record b ~input rep;
            rep
          in
          let traced d =
            let rep = Rep.run ~spans:sp w ~seed ~input ~domains:d in
            record b ~input rep;
            (rep, Spans.durations sp "engine.step")
          in
          (* The overhead pair runs back to back, each rep rescaled by the
             calibrations around it as in the untraced run. Which goes
             first alternates, so the overhead includes no order effect. *)
          let pair first second =
            let host = Host.create () in
            let i = Host.mark host in
            let x = first () in
            let j = Host.mark host in
            let y = second () in
            let slow = Host.finish host in
            ((x, slow i), (y, slow j))
          in
          let (base, slow_base), ((t1, steps_d1), slow_t1) =
            if r mod 2 = 0 then pair untraced (fun () -> traced 1)
            else
              let t, u = pair (fun () -> traced 1) untraced in
              (u, t)
          in
          let _, steps_d2 = traced 2 in
          let ladder = Ladder.run ~spans:sp ?min_s:ladder_min_s w ~seed in
          let layer_metrics =
            Layers.metrics acc ladder ~lat:base.lat ~steps_d1 ~steps_d2 ~sps:(sps base)
              ~overhead:(1.0 -. (sps t1 *. slow_t1 /. (sps base *. slow_base)))
          in
          Hashtbl.replace names w.name (List.map (fun (n, u, _) -> (n, u)) layer_metrics);
          List.iter (fun (n, _, v) -> Hashtbl.add values (w.name, n) v) layer_metrics)
        books);
  List.map
    (fun b ->
      {
        workload = b.w.name;
        attempted = b.attempted;
        failures = List.rev b.failed;
        metrics =
          List.map
            (fun (name, unit_) ->
              { name; unit_; values = Hashtbl.find_all values (b.w.name, name) })
            (Hashtbl.find names b.w.name);
        extra = [];
      })
    books
