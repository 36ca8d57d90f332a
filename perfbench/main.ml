(* The repository benchmark. See README.md.

   main.exe [benchmark] [--workload W] [--seed N] [--seconds S] [--trace 0|1]
            [-o RESULTS.json] [--trace-file TRACE.json]
   main.exe compare A.json B.json [--spec BENCHMARK.json]
   main.exe smoke [--spec BENCHMARK.json]

   [benchmark] runs one workload (or all four, round-robin) and prints
   every metric by name with its unit, then one JSON line: end-to-end
   metrics untraced (--trace 0), per-layer metrics from the traced run
   (--trace 1). *)

let panel = 6

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let summary (m : Measure.metric) =
  let q1, med, q3 = Measure.quartiles m.values in
  (med, q1, q3, List.length m.values)

let print_result (r : Measure.result) =
  Printf.printf "== %s: %d reps, %d failed\n" r.workload r.attempted (List.length r.failures);
  List.iter (fun f -> Printf.eprintf "FAILED %s\n" f) r.failures;
  List.iter
    (fun (m : Measure.metric) ->
      let med, q1, q3, n = summary m in
      Printf.printf "  %-44s %14.6g %-6s (q1 %.6g, q3 %.6g, n %d)\n" m.name med m.unit_ q1 q3 n)
    (r.metrics @ r.extra)

(* The last line of output: one JSON object. With several workloads the
   metric names are prefixed by the workload's. *)
let final_line results =
  let prefix = List.length results > 1 in
  let total f = List.fold_left (fun n (r : Measure.result) -> n + f r) 0 results in
  let failed = total (fun r -> List.length r.failures) in
  let metrics =
    List.concat_map
      (fun (r : Measure.result) ->
        List.map
          (fun (m : Measure.metric) ->
            ( (if prefix then r.workload ^ "/" ^ m.name else m.name),
              Json.Obj
                [ ("value", Json.Num (Measure.median m.values)); ("unit", Json.Str m.unit_) ] ))
          r.metrics)
      results
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Num (float_of_int (total (fun r -> r.attempted))));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj metrics);
       ])

let results_json ~seed ~trace results =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int seed));
      ("trace", Json.Bool trace);
      ( "workloads",
        Json.Arr
          (List.map
             (fun (r : Measure.result) ->
               Json.Obj
                 [
                   ("name", Json.Str r.workload);
                   ("attempted", Json.Num (float_of_int r.attempted));
                   ("failed", Json.Num (float_of_int (List.length r.failures)));
                   ( "metrics",
                     Json.Arr
                       (List.map
                          (fun (m : Measure.metric) ->
                            let med, q1, q3, n = summary m in
                            Json.Obj
                              [
                                ("name", Json.Str m.name);
                                ("unit", Json.Str m.unit_);
                                ("median", Json.Num med);
                                ("q1", Json.Num q1);
                                ("q3", Json.Num q3);
                                ("n", Json.Num (float_of_int n));
                              ])
                          (r.metrics @ r.extra)) );
                 ])
             results) );
    ]

let write_file path contents =
  try Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  with Sys_error e -> die "cannot write %s: %s" path e

let benchmark ~workload ~seed ~seconds ~trace ~out ~trace_file =
  let all = Workloads.all ~smoke:false in
  let workloads =
    match workload with
    | None -> all
    | Some name -> (
      match List.find_opt (fun (w : Workloads.t) -> w.name = name) all with
      | Some w -> [ w ]
      | None ->
        die "unknown workload %S (have: %s)" name
          (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) all)))
  in
  let results =
    if trace then begin
      let spans = Spans.create () in
      let results = Measure.per_layer ~panel ~seconds ~seed ~spans workloads in
      write_file trace_file (Spans.to_chrome spans);
      results
    end
    else Measure.end_to_end ~panel ~seconds ~seed workloads
  in
  List.iter print_result results;
  Option.iter
    (fun path -> write_file path (Json.to_string (results_json ~seed ~trace results) ^ "\n"))
    out;
  print_endline (final_line results)

(* ------------------------------------------------------------------ *)
(* compare A.json B.json                                                *)
(* ------------------------------------------------------------------ *)

type side = { med : float; q1 : float; q3 : float; failed : float; attempted : float }

let load_results path =
  let doc =
    try Json.read_file path with Sys_error e -> die "%s" e | Json.Error e -> die "%s: %s" path e
  in
  List.concat_map
    (fun w ->
      let name = Json.str (Json.member "name" w) in
      let num k = Json.to_float (Json.member k w) in
      List.map
        (fun m ->
          let f k = Json.to_float (Json.member k m) in
          ( (name, Json.str (Json.member "name" m)),
            {
              med = f "median";
              q1 = f "q1";
              q3 = f "q3";
              failed = num "failed";
              attempted = num "attempted";
            } ))
        (Json.to_list (Json.member "metrics" w)))
    (Json.to_list (Json.member "workloads" doc))

type spec_metric = { s_name : string; s_unit : string; higher : bool; bound : float option }

let load_spec path =
  let doc =
    try Json.read_file path with Sys_error e -> die "%s" e | Json.Error e -> die "%s: %s" path e
  in
  let metrics key =
    List.map
      (fun m ->
        {
          s_name = Json.str (Json.member "name" m);
          s_unit = Json.str (Json.member "unit" m);
          higher = Json.str (Json.member "better" m) = "higher";
          bound = (match Json.member "bound" m with Json.Num b -> Some b | _ -> None);
        })
      (Json.to_list (Json.member key doc))
  in
  (metrics "end_to_end", metrics "per_layer")

(* Relative change toward worse (positive = worse) and the verdict
   against the metric's bound; a quartile spread wider than the bound on
   either side leaves the row unresolved. *)
let verdict s a b =
  let bound = Option.value s.bound ~default:0.0 in
  let rel x = if x.med = 0.0 then 0.0 else (x.q3 -. x.q1) /. Float.abs x.med in
  let worse =
    if a.med = 0.0 then 0.0
    else (if s.higher then a.med -. b.med else b.med -. a.med) /. Float.abs a.med
  in
  let v =
    if Float.max (rel a) (rel b) > bound then "unresolved"
    else if worse > bound then "regressed"
    else if worse < -.bound then "improved"
    else "within bound"
  in
  (worse, v)

let compare_cmd ~spec a_path b_path =
  let e2e, _ = load_spec spec in
  let a = load_results a_path and b = load_results b_path in
  let workloads = List.sort_uniq compare (List.map (fun ((w, _), _) -> w) (a @ b)) in
  Printf.printf "%-12s %-22s %28s %28s %9s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "worse by" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          match (List.assoc_opt (w, s.s_name) a, List.assoc_opt (w, s.s_name) b) with
          | Some x, Some y ->
            let worse, v = verdict s x y in
            let cell x = Printf.sprintf "%.5g [%.5g, %.5g]" x.med x.q1 x.q3 in
            Printf.printf "%-12s %-22s %28s %28s %+8.2f%%  %s (bound %.0f%%)\n" w s.s_name
              (cell x) (cell y) (100.0 *. worse) v
              (100.0 *. Option.value s.bound ~default:0.0)
          | _ -> Printf.printf "%-12s %-22s missing from %s\n" w s.s_name
                   (if List.mem_assoc (w, s.s_name) a then "B" else "A"))
        e2e)
    workloads;
  let failed_share results =
    let per_workload =
      List.sort_uniq compare (List.map (fun ((w, _), x) -> (w, x.failed, x.attempted)) results)
    in
    let f = List.fold_left (fun n (_, f, _) -> n +. f) 0.0 per_workload in
    let t = List.fold_left (fun n (_, _, t) -> n +. t) 0.0 per_workload in
    if t = 0.0 then 0.0 else f /. t
  in
  Printf.printf "failed reps: A %.4f, B %.4f\n" (failed_share a) (failed_share b)

(* ------------------------------------------------------------------ *)
(* smoke                                                                *)
(* ------------------------------------------------------------------ *)

let smoke ~spec =
  let e2e_spec, layer_spec = load_spec spec in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let workloads = Workloads.all ~smoke:true in
  (* End-to-end metrics must never read 0; no metric may be undefined. *)
  let check_names ~nonzero wanted (results : Measure.result list) =
    List.iter
      (fun (r : Measure.result) ->
        List.iter (problem "%s") r.failures;
        List.iter
          (fun s ->
            match List.find_opt (fun (m : Measure.metric) -> m.name = s.s_name) r.metrics with
            | None -> problem "%s: metric %s not emitted" r.workload s.s_name
            | Some m when m.unit_ <> s.s_unit ->
              problem "%s: %s has unit %s, BENCHMARK.json says %s" r.workload s.s_name m.unit_
                s.s_unit
            | Some m when List.exists (fun v -> Float.is_nan v || (nonzero && v = 0.0)) m.values ->
              problem "%s: %s reads %s" r.workload s.s_name
                (String.concat ", " (List.map string_of_float m.values))
            | Some _ -> ())
          wanted)
      results
  in
  (* Digests of the same input must agree across domain counts, so a
     failure-free run also has identical simulated metrics at 1 and 2. *)
  check_names ~nonzero:true e2e_spec
    (Measure.end_to_end ~panel:1 ~seconds:0.0 ~seed:1 workloads);
  check_names ~nonzero:false layer_spec
    (Measure.per_layer ~ladder_min_s:0.002 ~panel:1 ~seconds:0.0 ~seed:1 ~spans:(Spans.create ())
       workloads);
  (* A wrong expected result must count as a failed rep. *)
  (match List.find_opt (fun (w : Workloads.t) -> w.expected <> None) workloads with
  | None -> problem "no workload has an expected result"
  | Some w ->
    let wrong = { w with expected = Option.map succ w.expected } in
    let b = Measure.book wrong in
    Measure.record b ~input:0 (Rep.run wrong ~seed:1 ~input:0 ~domains:1);
    if b.failed = [] then problem "%s: a wrong expected result was not counted as failed" w.name);
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
    exit 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref 11 and seconds = ref 25.0 and trace = ref false in
  let out = ref None and trace_file = ref "bench-trace.json" and spec = ref "BENCHMARK.json" in
  let positional = ref [] in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME one workload (default: all four)" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 11)");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds (default 25)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false
          | 1 -> trace := true
          | n -> die "--trace takes 0 or 1, not %d" n),
        "0|1 untraced end-to-end run, or traced per-layer run" );
      ("-o", Arg.String (fun s -> out := Some s), "FILE write per-workload medians and quartiles");
      ("--trace-file", Arg.Set_string trace_file, "FILE Chrome trace of the traced run");
      ("--spec", Arg.Set_string spec, "FILE the BENCHMARK.json to check against");
    ]
  in
  let usage = "main.exe [benchmark|compare A B|smoke] [options]" in
  (try Arg.parse_argv Sys.argv specs (fun a -> positional := a :: !positional) usage with
  | Arg.Help msg ->
    print_string msg;
    exit 0
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2);
  if !seconds < 0.0 then die "--seconds must be non-negative";
  match List.rev !positional with
  | [] | [ "benchmark" ] ->
    benchmark ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
      ~trace_file:!trace_file
  | [ "compare"; a; b ] -> compare_cmd ~spec:!spec a b
  | [ "smoke" ] -> smoke ~spec:!spec
  | _ -> die "usage: %s" usage
