(* The latency histogram (lib/obs/hist.ml) and the post-run report:
   exact small-sample percentiles, the bucket mapping at power-of-two
   boundaries, absorb associativity, and byte-determinism of
   [dgr report --deterministic] output. *)
open Dgr_obs

(* --- exact region ---------------------------------------------------- *)

let test_small_sample_percentiles () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  Alcotest.(check int) "count" 8 (Hist.count h);
  Alcotest.(check int) "max" 9 (Hist.max_value h);
  (* nearest rank on the sorted sample [1;1;2;3;4;5;6;9] *)
  Alcotest.(check int) "p50 = 4th" 3 (Hist.percentile h 50.0);
  Alcotest.(check int) "p25 = 2nd" 1 (Hist.percentile h 25.0);
  Alcotest.(check int) "p90 = 8th" 9 (Hist.percentile h 90.0);
  Alcotest.(check int) "p100 = max" 9 (Hist.percentile h 100.0);
  Alcotest.(check (float 1e-9)) "mean" 3.875 (Hist.mean h)

let test_empty_and_clear () =
  let h = Hist.create () in
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  Alcotest.(check int) "empty p99" 0 (Hist.percentile h 99.0);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Hist.mean h);
  Hist.add h 7;
  Hist.add h (-3);
  (* negatives clamp to 0 *)
  Alcotest.(check int) "clamped count" 2 (Hist.count h);
  Alcotest.(check int) "clamped p1" 0 (Hist.percentile h 1.0);
  Hist.clear h;
  Alcotest.(check int) "cleared" 0 (Hist.count h)

(* --- bucket mapping --------------------------------------------------- *)

let test_bucket_boundaries () =
  (* 0..15 are exact: index = value, value_of inverts. *)
  for v = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "exact idx %d" v) v (Hist.index_of v);
    Alcotest.(check int) (Printf.sprintf "exact val %d" v) v (Hist.value_of v)
  done;
  (* Above 15, each power-of-two range splits into 16 sub-buckets, so
     value_of (index_of v) is the bucket lower bound: <= v, and within
     a 1/16 relative error. *)
  List.iter
    (fun v ->
      let lb = Hist.value_of (Hist.index_of v) in
      if lb > v then Alcotest.failf "lower bound %d above sample %d" lb v;
      if (v - lb) * 16 > v then
        Alcotest.failf "bucket too wide at %d: lower bound %d" v lb)
    [ 16; 17; 31; 32; 33; 63; 64; 255; 256; 1000; 65535; 65536; 1_000_000 ];
  (* index_of is monotone across the boundaries where buckets change. *)
  let idxs = List.map Hist.index_of [ 15; 16; 31; 32; 64; 128; 1024 ] in
  let rec nondec = function
    | a :: b :: rest -> a <= b && nondec (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (nondec idxs);
  Alcotest.(check bool) "strict at 15->16" true
    (Hist.index_of 15 < Hist.index_of 16)

(* --- absorb ----------------------------------------------------------- *)

let fill seed n =
  let h = Hist.create () in
  let r = Dgr_util.Rng.create seed in
  for _ = 1 to n do
    Hist.add h (Dgr_util.Rng.int r 10_000)
  done;
  h

let test_absorb_associativity () =
  (* ((a + b) + c) and (a + (b + c)) must be byte-identical, and absorb
     must clear its source. *)
  let json_of_merge order =
    let a = fill 1 100 and b = fill 2 200 and c = fill 3 300 in
    (match order with
    | `Left ->
      Hist.absorb ~into:a b;
      Hist.absorb ~into:a c;
      Hist.to_json a
    | `Right ->
      Hist.absorb ~into:b c;
      Hist.absorb ~into:a b;
      Hist.to_json a)
  in
  Alcotest.(check string) "associative" (json_of_merge `Left) (json_of_merge `Right);
  let a = fill 1 100 and b = fill 2 200 in
  let na = Hist.count a and nb = Hist.count b in
  Hist.absorb ~into:a b;
  Alcotest.(check int) "counts sum" (na + nb) (Hist.count a);
  Alcotest.(check int) "source cleared" 0 (Hist.count b)

(* --- dgr report determinism ------------------------------------------ *)

let test_report_deterministic () =
  let render () =
    let e = Dgr_harness.Bench.run_for_report ~domains:1 "fib-12-concurrent" in
    let s = Dgr_harness.Report.render ~deterministic:true e in
    s
  in
  let s1 = render () and s2 = render () in
  Alcotest.(check string) "report bytes" s1 s2;
  (* the deterministic report never includes the wall-clock section *)
  Alcotest.(check bool) "no wall-clock section" false
    (let needle = "step phases" in
     let nl = String.length needle and hl = String.length s1 in
     let rec go i =
       i + nl <= hl && (String.sub s1 i nl = needle || go (i + 1))
     in
     go 0)

let suite =
  [
    Alcotest.test_case "small-sample percentiles are exact" `Quick
      test_small_sample_percentiles;
    Alcotest.test_case "empty, clear and negative clamp" `Quick test_empty_and_clear;
    Alcotest.test_case "bucket boundaries map and invert" `Quick
      test_bucket_boundaries;
    Alcotest.test_case "absorb is associative and clears its source" `Quick
      test_absorb_associativity;
    Alcotest.test_case "deterministic report is byte-stable" `Quick
      test_report_deterministic;
  ]
