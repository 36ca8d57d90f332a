(* The step barrier's merge machinery: dirty-set absorption, the
   mailbox flush, the empty-step fast path, and the
   chunk-linked recorder drain. Each test pins a byte-equivalence the
   sharded engine's determinism proof leans on. *)
open Dgr_util
open Dgr_obs
open Dgr_sim
open Dgr_task
open Dgr_graph

(* --- dirty-set absorption ------------------------------------------- *)

(* Per-PE histograms merged through different intermediate groupings —
   the shapes domains=1/2/4 produce — must yield byte-identical JSON:
   absorb is associative, and the dirty-set rewrite must not have
   changed that. *)
let test_absorb_associativity () =
  let pes = 8 in
  let fill seed =
    let rng = Rng.create seed in
    let hs = Array.init pes (fun _ -> Hist.create ()) in
    Array.iter
      (fun h ->
        for _ = 1 to Rng.int rng 200 do
          Hist.add h (Rng.int rng 5000)
        done)
      hs;
    hs
  in
  let merge_groups groups =
    (* absorb each PE group into a per-group sink, then the sinks into
       the main histogram in ascending group order *)
    let main = Hist.create () in
    List.iter
      (fun group ->
        let sink = Hist.create () in
        List.iter (fun h -> Hist.absorb ~into:sink h) group;
        Hist.absorb ~into:main sink)
      groups;
    main
  in
  let split n hs =
    let per = pes / n in
    List.init n (fun g -> List.init per (fun i -> hs.((g * per) + i)))
  in
  let j1 = Hist.to_json (merge_groups (split 1 (fill 42))) in
  let j2 = Hist.to_json (merge_groups (split 2 (fill 42))) in
  let j4 = Hist.to_json (merge_groups (split 4 (fill 42))) in
  Alcotest.(check string) "domains=2 grouping" j1 j2;
  Alcotest.(check string) "domains=4 grouping" j1 j4;
  (* absorbed sources are cleared, so a second merge finds nothing *)
  let hs = fill 7 in
  let first = Hist.to_json (merge_groups (split 4 hs)) in
  let again = merge_groups (split 4 hs) in
  Alcotest.(check bool) "non-empty merge" true (first <> Hist.to_json (Hist.create ()));
  Alcotest.(check int) "sources cleared" 0 (Hist.count again)

(* --- mailbox flush ---------------------------------------------------- *)

(* One randomized post schedule, two networks: posting it into per-PE
   mailboxes and flushing them in ascending PE order (the barrier), and
   sending the same schedule directly in src-major order (post order
   within a src), must leave identical networks — same staged entries,
   same counters, same frames. Duplicated marks share multi-task frames,
   and every one of them must be staged. *)
let random_schedule ~pes ~posts seed =
  let rng = Rng.create seed in
  List.init posts (fun _ ->
      let src = Rng.int rng pes in
      let dst = Rng.int rng pes in
      let arrival = 4 + Rng.int rng 3 in
      let task =
        if Rng.int rng 3 = 0 then
          Task.Reduction
            (Task.Request
               {
                 src = Some (Rng.int rng 100);
                 dst = Rng.int rng 50;
                 demand = Demand.Vital;
                 key = Rng.int rng 50;
               })
        else
          (* small vid range forces duplicate marks into shared frames *)
          Task.Marking (Task.Mark1 { v = Rng.int rng 12; par = Plane.Rootpar; ep = 0 })
      in
      (src, dst, arrival, task))

(* What a flushed network shows: its staged entries, then — after a tick
   before the earliest arrival flushes the frames into the channel,
   which counts them, and delivers nothing — its counters. *)
let observe net =
  let entries = Network.entries net in
  Network.deliver_serial net ~now:0 ~push:(fun _ _ _ -> assert false);
  (entries, Network.tasks_sent net, Network.frames_sent net)

let via_mailboxes schedule pes =
  let net = Network.create () in
  let mbs = Array.init pes (fun _ -> Network.Mailbox.create ()) in
  List.iter
    (fun (src, dst, arrival, task) -> Network.Mailbox.post mbs.(src) ~src ~arrival ~pe:dst task)
    schedule;
  Array.iter (fun mb -> Network.Mailbox.flush mb net) mbs;
  observe net

let via_send schedule =
  let net = Network.create () in
  let src_major = List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) schedule in
  List.iter
    (fun (src, dst, arrival, task) -> Network.send ~src net ~arrival ~pe:dst task)
    src_major;
  observe net

let test_mailbox_flush_equivalence () =
  let pes = 8 in
  List.iter
    (fun seed ->
      let schedule = random_schedule ~pes ~posts:300 seed in
      let entries_m, sent_m, frames_m = via_mailboxes schedule pes in
      let entries_d, sent_d, frames_d = via_send schedule in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: staged entries equal" seed)
        true (entries_m = entries_d);
      Alcotest.(check int) "tasks_sent" sent_d sent_m;
      Alcotest.(check int) "every post staged" (List.length schedule) sent_m;
      Alcotest.(check int) "frames staged" frames_d frames_m;
      Alcotest.(check bool) "multi-task frames exercised" true (sent_m > frames_m))
    [ 3; 17; 29 ]

(* The inline sends and the barrier flush share one staging index: a
   mailbox entry joins the frame a direct [send] opened earlier in the
   step, and a direct send after the flush joins the mailbox's frame. *)
let test_mailbox_joins_sent_frame () =
  let mark v = Task.Marking (Task.Mark1 { v; par = Plane.Rootpar; ep = 0 }) in
  let net = Network.create () in
  let mbs = Array.init 2 (fun _ -> Network.Mailbox.create ()) in
  Network.send ~src:0 net ~arrival:3 ~pe:1 (mark 1);
  Network.Mailbox.post mbs.(0) ~src:0 ~arrival:3 ~pe:1 (mark 2);
  Network.Mailbox.post mbs.(1) ~src:1 ~arrival:3 ~pe:0 (mark 3);
  Array.iter (fun mb -> Network.Mailbox.flush mb net) mbs;
  Network.send ~src:1 net ~arrival:3 ~pe:0 (mark 4);
  let entries, sent, frames = observe net in
  Alcotest.(check int) "four tasks staged" 4 sent;
  Alcotest.(check int) "two frames, one per link" 2 frames;
  Alcotest.(check bool) "frame order is staging order" true
    (List.map snd entries = [ mark 1; mark 2; mark 3; mark 4 ])

(* --- empty-step fast path ------------------------------------------- *)

(* An idle step's merge touches nothing: absorbing empty shard sinks and
   flushing empty mailboxes must be allocation-free. *)
let test_empty_merge_alloc_free () =
  let pes = 8 in
  let main_h = Hist.create () and sub_h = Hist.create () in
  let main_m = Metrics.create () and sub_m = Metrics.create () in
  let net = Network.create () in
  let mbs = Array.init pes (fun _ -> Network.Mailbox.create ()) in
  let empty_merge () =
    Hist.absorb ~into:main_h sub_h;
    Metrics.absorb main_m sub_m;
    for pe = 0 to pes - 1 do
      Network.Mailbox.flush mbs.(pe) net
    done
  in
  empty_merge ();
  (* warmed up *)
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    empty_merge ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d empty merges" words iters)
    true
    (words < 2.0 *. float_of_int iters)

(* --- chunk-linked recorder drain ------------------------------------ *)

let exec pe vid = Event.Execute { kind = Event.Mark; pe; vid; lin = -1 }

(* Drive two (main, subs) recorder pairs through the same multi-step
   emission schedule — sub events drained at each barrier, controller
   events emitted directly on the main recorder in between — one pair
   with the re-emitting drain, one with the chunk-linking drain. Events,
   stamps, lengths and drop counts must match byte for byte. A small
   main capacity pushes eviction across the ring/chunk boundary. *)
let drive ~capacity ~drain =
  let pes = 3 in
  let main = Recorder.create ~capacity ~num_pes:pes () in
  let subs = Array.init pes (fun _ -> Recorder.create ~capacity:256 ~num_pes:pes ()) in
  let rng = Rng.create 99 in
  for step = 0 to 29 do
    Recorder.set_now main step;
    Array.iter (fun s -> Recorder.set_now s step) subs;
    (* per-PE work, buffered in the sub-recorders *)
    Array.iteri
      (fun pe s ->
        for _ = 1 to Rng.int rng 8 do
          Recorder.emit s (exec pe (Rng.int rng 100))
        done)
      subs;
    (* the barrier: drain ascending, then controller-side events *)
    Array.iter (fun s -> drain ~src:s ~dst:main) subs;
    Recorder.emit main (Event.Phase { phase = Event.Mark_root; cycle = step; wave = step })
  done;
  main

let test_chunk_drain_order () =
  List.iter
    (fun capacity ->
      let copied = drive ~capacity ~drain:Recorder.drain_into in
      let linked = drive ~capacity ~drain:Recorder.absorb_chunks in
      Alcotest.(check int)
        (Printf.sprintf "cap %d: emitted" capacity)
        (Recorder.emitted copied) (Recorder.emitted linked);
      Alcotest.(check int) "length" (Recorder.length copied) (Recorder.length linked);
      Alcotest.(check int) "dropped" (Recorder.dropped copied) (Recorder.dropped linked);
      let evs r =
        List.map
          (fun (e : Event.t) -> (e.Event.step, e.Event.seq, Format.asprintf "%a" Event.pp e))
          (Recorder.events r)
      in
      Alcotest.(check bool) "event streams identical" true (evs copied = evs linked))
    (* never-wrapping, and wrapping mid-chunk *)
    [ 65536; 64; 17 ]

let suite =
  [
    Alcotest.test_case "hist absorb is associative across domain groupings" `Quick
      test_absorb_associativity;
    Alcotest.test_case "mailbox flush = direct send, src-major order" `Quick
      test_mailbox_flush_equivalence;
    Alcotest.test_case "mailbox entry joins a frame staged by send" `Quick
      test_mailbox_joins_sent_frame;
    Alcotest.test_case "empty-step merge allocates nothing" `Quick
      test_empty_merge_alloc_free;
    Alcotest.test_case "chunk-linked drain = copied drain" `Quick
      test_chunk_drain_order;
  ]
