(* The step barrier's merge machinery: dirty-set absorption, the seal
   of the frames the shards built, the empty-step fast path, and the
   recorder drain. Each test pins a byte-equivalence the sharded
   engine's determinism proof leans on. *)
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

(* --- sender-side framing and the seal ---------------------------------- *)

(* One randomized send schedule, two networks: sending it in the shard
   phase, in its random interleaving of sources, then sealing (the
   barrier), and sending the same schedule serially in src-major order
   (send order within a src), must leave identical networks — same
   staged entries, same counters, same frames, same lineage tickets.
   Duplicated marks share multi-task frames, and every one of them must
   be staged. *)
let random_schedule ~pes ~posts seed =
  let rng = Rng.create seed in
  List.init posts (fun _ ->
      let src = Rng.int rng pes in
      let dst = Rng.int rng pes in
      let arrival = 4 + Rng.int rng 3 in
      let lin = Rng.int rng 10 - 1 and depth = Rng.int rng 5 in
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
      (src, dst, arrival, lin, depth, task))

(* What a sealed network shows: its staged entries, then — after a tick
   before the earliest arrival flushes the frames into the channel,
   which counts them, and delivers nothing — its counters, then every
   task with its ticket as a later tick hands it up. *)
let observe net =
  let entries = Network.entries net in
  Network.deliver_serial net ~now:0 ~push:(fun _ _ _ -> assert false);
  let sent = Network.tasks_sent net and frames = Network.frames_sent net in
  let delivered = ref [] in
  Network.deliver_into net ~now:10 ~push:(fun pe stamp task ->
      delivered := (pe, stamp, task) :: !delivered);
  (entries, sent, frames, List.rev !delivered)

let send_entry net (src, dst, arrival, lin, depth, task) =
  Network.send ~src ~lin ~depth net ~arrival ~pe:dst task

let via_shards schedule pes =
  let net = Network.create ~lineage:(Lineage.create ()) () in
  Network.reserve net ~pes;
  Network.shard_phase net;
  List.iter (send_entry net) schedule;
  Network.seal net;
  observe net

let via_send schedule =
  let net = Network.create ~lineage:(Lineage.create ()) () in
  let src_of (src, _, _, _, _, _) = src in
  List.iter (send_entry net)
    (List.stable_sort (fun a b -> compare (src_of a) (src_of b)) schedule);
  observe net

let test_seal_equivalence () =
  let pes = 8 in
  List.iter
    (fun seed ->
      let schedule = random_schedule ~pes ~posts:300 seed in
      let entries_s, sent_s, frames_s, got_s = via_shards schedule pes in
      let entries_d, sent_d, frames_d, got_d = via_send schedule in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: staged entries equal" seed)
        true (entries_s = entries_d);
      Alcotest.(check int) "tasks_sent" sent_d sent_s;
      Alcotest.(check int) "every send staged" (List.length schedule) sent_s;
      Alcotest.(check int) "frames staged" frames_d frames_s;
      Alcotest.(check bool) "multi-task frames exercised" true (sent_s > frames_s);
      Alcotest.(check bool) "same tasks, tickets and delivery order" true (got_s = got_d);
      Alcotest.(check int) "every send delivered" (List.length schedule) (List.length got_s))
    [ 3; 17; 29 ]

(* Serial and shard-phase sends share each sender's index: a shard send
   joins the frame a serial send opened on its link, and a serial send
   after the seal joins the frame a shard opened. *)
let test_shard_and_serial_sends_join () =
  let mark v = Task.Marking (Task.Mark1 { v; par = Plane.Rootpar; ep = 0 }) in
  let net = Network.create () in
  Network.reserve net ~pes:2;
  Network.send ~src:0 net ~arrival:3 ~pe:1 (mark 1);
  Network.shard_phase net;
  Network.send ~src:0 net ~arrival:3 ~pe:1 (mark 2);
  Network.send ~src:1 net ~arrival:3 ~pe:0 (mark 3);
  Network.seal net;
  Network.send ~src:1 net ~arrival:3 ~pe:0 (mark 4);
  let entries, sent, frames, _ = observe net in
  Alcotest.(check int) "four tasks staged" 4 sent;
  Alcotest.(check int) "two frames, one per link" 2 frames;
  Alcotest.(check bool) "frame order is staging order" true
    (List.map snd entries = [ mark 1; mark 2; mark 3; mark 4 ])

(* Sends the seal has not published must not escape it: flushing,
   purging or severing the staged frames refuses, naming the sender and
   what it holds, and leaves the network as it was. A PE outside the
   reserved ones cannot send in the shard phase either. *)
let test_unsealed_sends_refused () =
  let mark v = Task.Marking (Task.Mark1 { v; par = Plane.Rootpar; ep = 0 }) in
  let net = Network.create () in
  Network.reserve net ~pes:4;
  Network.shard_phase net;
  Network.send ~src:2 net ~arrival:3 ~pe:1 (mark 1);
  Network.send ~src:2 net ~arrival:4 ~pe:1 (mark 2);
  Network.send ~src:2 net ~arrival:4 ~pe:1 (mark 3);
  let refused fn =
    Invalid_argument (Printf.sprintf "Network.%s: src 2 holds 2 unsealed frame(s) (3 tasks)" fn)
  in
  Alcotest.check_raises "deliver_serial" (refused "deliver_serial") (fun () ->
      Network.deliver_serial net ~now:1 ~push:(fun _ _ _ -> ()));
  Alcotest.check_raises "purge" (refused "purge") (fun () ->
      ignore (Network.purge net (fun _ -> true)));
  Alcotest.check_raises "crash_pe" (refused "crash_pe") (fun () ->
      ignore (Network.crash_pe net ~pe:2));
  Alcotest.check_raises "unreserved sender"
    (Invalid_argument "Network: PE 4 is outside the 4 reserved before the shard phase")
    (fun () -> Network.send ~src:4 net ~arrival:3 ~pe:1 (mark 4));
  Alcotest.(check int) "nothing counted before the seal" 0 (Network.size net);
  Network.seal net;
  Alcotest.(check int) "sealed: every send counted" 3 (Network.size net);
  Alcotest.(check int) "and purgeable" 3 (Network.purge net (fun _ -> true))

(* --- empty-step fast path ------------------------------------------- *)

(* An idle step's merge touches nothing: absorbing empty shard sinks and
   sealing a shard phase that sent nothing must be allocation-free. *)
let test_empty_merge_alloc_free () =
  let pes = 8 in
  let main_h = Hist.create () and sub_h = Hist.create () in
  let main_m = Metrics.create () and sub_m = Metrics.create () in
  let net = Network.create () in
  Network.reserve net ~pes;
  let empty_merge () =
    Hist.absorb ~into:main_h sub_h;
    Metrics.absorb main_m sub_m;
    Network.shard_phase net;
    Network.seal net
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

(* --- marks as lanes -------------------------------------------------- *)

(* The whole per-mark transport path, as the engine drives it: a shard's
   send into its own frame, the barrier's seal, the delivery tick, the
   destination shard's take into its pool's ring, and the marking drain.
   Once the buffers have grown, a mark is three ints all the way: under
   one minor word per mark over the whole path. *)
let test_mark_path_alloc_free () =
  let pes = 4 in
  let g = Graph.create ~num_pes:pes () in
  let pools = Array.init pes (fun pe -> Pool.create ~pe Pool.Flat g) in
  let net = Network.create () in
  Network.reserve net ~pes;
  let meta = Task.meta ~kind:Task.kind_mark1 ~plane:Plane.MR ~prior:0 ~ep:0 in
  let drained = ref 0 in
  let handler : Task.sink = fun _ _ _ -> incr drained in
  let no_reduction _ _ _ = Alcotest.fail "no reduction was sent" in
  let marks = 64 in
  let round now =
    Network.shard_phase net;
    for i = 0 to marks - 1 do
      let src = i mod pes and dst = i / pes mod pes in
      Network.send_mark net ~src ~arrival:(now + 1) ~pe:dst i (-1) meta
    done;
    Network.seal net;
    Network.deliver_serial net ~now:(now + 1) ~push:no_reduction;
    for pe = 0 to pes - 1 do
      Network.take_mark_lanes net ~pe (Pool.marks pools.(pe));
      Pool.drain_marking pools.(pe) ~budget:max_int handler
    done
  in
  (* warm-up: grows every buffer, ring and free list *)
  for now = 0 to 9 do
    round now
  done;
  let rounds = 1_000 in
  let w0 = Gc.minor_words () in
  for k = 1 to rounds do
    round (10 + k)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every mark drained" ((10 + rounds) * marks) !drained;
  Alcotest.(check int) "network empty" 0 (Network.size net);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d marks" words (rounds * marks))
    true
    (words < float_of_int (rounds * marks))

(* A vertex lookup is a slot read: no tuple for the chunk address, in the
   dense prefix or in a partitioned home's segment. *)
let test_vertex_lookup_alloc_free () =
  let g = Graph.create () in
  for _ = 1 to 3_000 do
    ignore (Graph.alloc g Label.Ind)
  done;
  Graph.partition g ~pes:4;
  for pe = 0 to 3 do
    for _ = 1 to 700 do
      ignore (Graph.alloc ~from:pe g Label.Ind)
    done
  done;
  let n = Graph.vertex_count g in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (Graph.vertex g i))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) (Printf.sprintf "minor words over %d lookups" n) 0.0 words

(* --- recorder drain ------------------------------------------------- *)

let exec pe vid = Event.Execute { kind = Event.Mark; pe; vid; lin = -1 }

(* A sub-recorder that wrapped between drains has lost events the merge
   can never restore: the drain refuses it, says what it found, and
   leaves the destination as it was. *)
let test_drain_refuses_wrapped_source () =
  let dst = Recorder.create ~num_pes:2 () in
  Recorder.emit dst (exec 0 1);
  let src = Recorder.create ~capacity:4 ~num_pes:2 () in
  for vid = 1 to 5 do
    Recorder.emit src (exec 1 vid)
  done;
  Alcotest.check_raises "wrapped source"
    (Invalid_argument
       "Recorder.drain_into: source ring wrapped: 5 events emitted since the last drain, \
        capacity 4, 1 lost")
    (fun () -> Recorder.drain_into ~src ~dst);
  Alcotest.(check int) "dst emitted unchanged" 1 (Recorder.emitted dst);
  Alcotest.(check int) "dst length unchanged" 1 (Recorder.length dst)

(* A main recorder much smaller than the run: the barrier's drains push
   the ring past capacity many times, and what is retained — events with
   their stamps, emitted and dropped counts — must not depend on how
   many domains stepped the PEs. The fib program runs on one PE once
   its first steps are over, so the marking storm keeps every PE
   emitting inside the retained window. *)
let test_overflowing_trace_domain_invariant () =
  let pes = 4 in
  let fib ~recorder ~domains =
    let g, templates = Dgr_lang.Compile.load_string ~num_pes:pes (Dgr_lang.Prelude.fib 11) in
    let config =
      Engine.Config.make ~num_pes:pes ~jitter:0.3 ~seed:1
        ~marking:Dgr_core.Cycle.Flood_counters ~domains ()
    in
    let e = Engine.create ~recorder ~config g templates in
    Engine.inject_root_demand e;
    ignore (Engine.run ~max_steps:20_000 e);
    Alcotest.(check bool) (Printf.sprintf "fib, domains %d: finished" domains) true
      (Engine.finished e);
    e
  in
  let storm ~recorder ~domains =
    let spec =
      { Builder.live = 400; garbage = 100; free_pool = 16; avg_degree = 2.5; cycle_bias = 0.15 }
    in
    let g = Builder.random ~num_pes:pes (Rng.create 3) spec in
    let config =
      Engine.Config.make ~num_pes:pes ~jitter:0.3 ~seed:1 ~heap_size:None
        ~marking:Dgr_core.Cycle.Flood_counters
        ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 8 })
        ~domains ()
    in
    let e = Engine.create ~recorder ~config g (Dgr_reduction.Template.create_registry ()) in
    Engine.inject_root_demand e;
    ignore (Engine.run ~max_steps:300 ~stop:(fun _ -> false) e);
    e
  in
  let trace machine domains =
    let r = Recorder.create ~capacity:2_000 ~num_pes:pes () in
    Engine.dispose (machine ~recorder:r ~domains);
    let evs =
      List.map
        (fun (ev : Event.t) -> (ev.Event.step, ev.Event.seq, Format.asprintf "%a" Event.pp ev))
        (Recorder.events r)
    in
    (evs, Recorder.emitted r, Recorder.dropped r)
  in
  List.iter
    (fun (name, machine) ->
      let evs1, emitted1, dropped1 = trace machine 1 in
      Alcotest.(check bool) (name ^ ": the ring overflowed") true (dropped1 > 0);
      Alcotest.(check int) (name ^ ": ring full") 2_000 (List.length evs1);
      List.iter
        (fun d ->
          let evs, emitted, dropped = trace machine d in
          let label what = Printf.sprintf "%s, domains %d: %s" name d what in
          Alcotest.(check int) (label "emitted") emitted1 emitted;
          Alcotest.(check int) (label "dropped") dropped1 dropped;
          Alcotest.(check bool) (label "retained events") true (evs = evs1))
        [ 2; 4 ])
    [ ("fib", fib); ("storm", storm) ]

(* --- the controller's accounting --------------------------------------- *)

(* The controller sends through a context of its own (PE -1): an
   injection is one [Send] event, remote whatever its destination,
   stamped with the lineage it minted and the plain link latency, and
   staged at once — but it is no PE's message, so neither message
   counter moves. *)
let test_inject_send_accounting () =
  let g = Graph.create ~num_pes:2 () in
  let v = Vertex.id (Graph.alloc ~pe:1 g (Label.Int 7)) in
  let r = Recorder.create ~num_pes:2 () in
  let config = Engine.Config.make ~num_pes:2 ~latency:4 ~jitter:0.0 ~gc:Engine.No_gc () in
  let e = Engine.create ~recorder:r ~config g (Dgr_reduction.Template.create_registry ()) in
  let task = Task.request v Demand.Eager in
  Engine.inject e task;
  Alcotest.(check int) "one lineage minted" 1 (Lineage.lineages (Engine.lineage e));
  (match
     List.filter_map
       (fun (ev : Event.t) ->
         match ev.Event.kind with
         | Event.Send { pe; vid; arrival; remote; lin; _ } -> Some (pe, vid, arrival, remote, lin)
         | _ -> None)
       (Recorder.events r)
   with
  | [ (pe, vid, arrival, remote, lin) ] ->
    Alcotest.(check (pair int int)) "to v on PE 1" (1, v) (pe, vid);
    Alcotest.(check int) "arrives at now + latency" (Engine.now e + 4) arrival;
    Alcotest.(check bool) "remote" true remote;
    Alcotest.(check int) "carries the minted lineage" 0 lin
  | sends -> Alcotest.failf "want one Send, got %d" (List.length sends));
  let m = Engine.metrics e in
  Alcotest.(check int) "remote_messages" 0 m.Metrics.remote_messages;
  Alcotest.(check int) "local_messages" 0 m.Metrics.local_messages;
  Alcotest.(check bool) "staged before any step" true
    (Engine.network_entries e = [ (4, task) ]);
  Engine.dispose e

(* Cooperation deferred by a PE's shard is replayed at the barrier as
   that PE: a replayed [Coop_spawn] whose child is homed on the
   deferring PE is followed by its [Send], which is local and counted
   so. Charging the replay to the controller would make those sends
   remote and leave [local_messages] short of the trace. *)
let test_replayed_coop_spawn_is_local () =
  let pes = 4 in
  let g, templates = Dgr_lang.Compile.load_string ~num_pes:pes (Dgr_lang.Prelude.fib 12) in
  let r = Recorder.create ~capacity:(1 lsl 20) ~num_pes:pes () in
  let config = Engine.Config.make ~num_pes:pes ~jitter:0.3 ~seed:5 () in
  let e = Engine.create ~recorder:r ~config g templates in
  Engine.inject_root_demand e;
  ignore (Engine.run ~max_steps:20_000 e);
  Engine.dispose e;
  Alcotest.(check bool) "finished" true (Engine.finished e);
  Alcotest.(check int) "trace complete" 0 (Recorder.dropped r);
  let evs = Array.of_list (Recorder.events r) in
  let replayed = ref 0 and local_sends = ref 0 in
  Array.iteri
    (fun i (ev : Event.t) ->
      match ev.Event.kind with
      | Event.Send { remote = false; _ } -> incr local_sends
      | Event.Coop_spawn { pe = p; child; _ } when i + 1 < Array.length evs -> (
        match evs.(i + 1).Event.kind with
        | Event.Send { pe; vid; remote; _ } when vid = child && pe = p ->
          incr replayed;
          Alcotest.(check bool)
            (Printf.sprintf "spawn on v%d replayed for PE %d is local" child p)
            false remote
        | _ -> ())
      | _ -> ())
    evs;
  Alcotest.(check bool) "some replayed spawn has its child on the deferring PE" true
    (!replayed > 0);
  Alcotest.(check int) "local_messages counts every local Send" !local_sends
    (Engine.metrics e).Metrics.local_messages

(* A cooperation event replayed at the barrier for PE p sends as p, after
   the seal: when p's shard opened a frame on the same link for the same
   arrival that step, the replayed send joins it instead of opening a
   second one. The trace shows it: p's shard sends (the [Send]s after
   its [Execute]s, before the step's first cooperation event), the
   replayed sends (a [Send] right after a [Coop_spawn]), and the next
   step's [Batch]es per link. A witness is a link whose shard sends that
   step all share the replayed send's arrival and whose next flush is a
   single frame carrying both. The machine flushes as many frames at 1
   and 2 domains. *)
let test_replay_joins_shard_frame () =
  let pes = 4 in
  let run domains =
    let g, templates = Dgr_lang.Compile.load_string ~num_pes:pes (Dgr_lang.Prelude.fib 12) in
    let r = Recorder.create ~capacity:(1 lsl 20) ~num_pes:pes () in
    let config = Engine.Config.make ~num_pes:pes ~jitter:0.3 ~seed:5 ~domains () in
    let e = Engine.create ~recorder:r ~config g templates in
    Engine.inject_root_demand e;
    ignore (Engine.run ~max_steps:20_000 e);
    Engine.dispose e;
    Alcotest.(check bool) (Printf.sprintf "domains %d: finished" domains) true (Engine.finished e);
    Alcotest.(check int) "trace complete" 0 (Recorder.dropped r);
    ((Engine.metrics e).Metrics.frames_sent, Array.of_list (Recorder.events r))
  in
  let frames1, evs = run 1 in
  let frames2, _ = run 2 in
  Alcotest.(check int) "frames_sent at 1 and 2 domains" frames1 frames2;
  (* (step, src, dst) -> arrivals of the shard's sends, of the replayed
     sends; (step, src, dst) -> the frame sizes flushed *)
  let shard = Hashtbl.create 64 and replayed = Hashtbl.create 64 and batches = Hashtbl.create 64 in
  let add tbl key x = Hashtbl.replace tbl key (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key)) in
  let cur = ref (-1, -1) and replaying = ref (-1) in
  Array.iteri
    (fun i (ev : Event.t) ->
      let step = ev.Event.step in
      if fst !cur <> step then cur := (step, -1);
      match ev.Event.kind with
      | Event.Execute { pe; _ } when !replaying <> step -> cur := (step, pe)
      | Event.Coop_spawn { pe = p; child; _ } -> (
        replaying := step;
        if i + 1 < Array.length evs then
          match evs.(i + 1).Event.kind with
          | Event.Send { pe = d; vid; arrival; _ } when vid = child ->
            add replayed (step, p, d) arrival
          | _ -> ())
      | Event.Coop_closure _ -> replaying := step
      | Event.Send { pe = d; arrival; _ } when !replaying <> step && snd !cur >= 0 ->
        add shard (step, snd !cur, d) arrival
      | Event.Batch { src; dst; count } -> add batches (step - 1, src, dst) count
      | _ -> ())
    evs;
  let witnesses =
    Hashtbl.fold
      (fun key arrivals acc ->
        match (Hashtbl.find_opt shard key, Hashtbl.find_opt batches key) with
        | Some (a :: rest as sent), Some [ count ]
          when List.for_all (( = ) a) rest && List.mem a arrivals ->
          Alcotest.(check bool) "the one frame carries the shard's and the replayed sends" true
            (count >= List.length sent + List.length (List.filter (( = ) a) arrivals));
          acc + 1
        | _ -> acc)
      replayed 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "a replayed send joined its PE's frame (%d witnesses)" witnesses)
    true (witnesses > 0)

let suite =
  [
    Alcotest.test_case "hist absorb is associative across domain groupings" `Quick
      test_absorb_associativity;
    Alcotest.test_case "shard sends + seal = serial sends, src-major" `Quick
      test_seal_equivalence;
    Alcotest.test_case "shard and serial sends join each other's frames" `Quick
      test_shard_and_serial_sends_join;
    Alcotest.test_case "unsealed sends are refused" `Quick test_unsealed_sends_refused;
    Alcotest.test_case "empty-step merge allocates nothing" `Quick
      test_empty_merge_alloc_free;
    Alcotest.test_case "mark path allocates under a word per mark" `Quick
      test_mark_path_alloc_free;
    Alcotest.test_case "vertex lookup allocates nothing" `Quick test_vertex_lookup_alloc_free;
    Alcotest.test_case "drain refuses a wrapped source" `Quick
      test_drain_refuses_wrapped_source;
    Alcotest.test_case "overflowing trace is the same at 1/2/4 domains" `Quick
      test_overflowing_trace_domain_invariant;
    Alcotest.test_case "inject: one remote Send, no PE's message" `Quick
      test_inject_send_accounting;
    Alcotest.test_case "replayed cooperation sends as its PE" `Quick
      test_replayed_coop_spawn_is_local;
    Alcotest.test_case "a replayed send joins its PE's shard frame" `Quick
      test_replay_joins_shard_frame;
  ]
