(* Step-phase profiler: wall-clock and allocation attribution of engine
   time.

   Each engine step is bracketed into phases — transport (network flush
   and delivery), execution (the per-PE budget loops, the only span the
   sharded engine runs in parallel), barrier merge (sub-recorder drain,
   metric absorption, lineage closes, seal, controller replay), GC control,
   and bookkeeping (counter sync, watchdogs, sampling). Within the
   execution span each shard further splits its time into its marking
   and its reduction budget loops ([shard_ns] keeps the per-shard sum).

   The engine reads the clock once per phase boundary, each reading
   closing one phase and opening the next, so the phases partition the
   step: 10 readings a step (the start, transport, execute, the merge's
   five sub-phases, GC control, bookkeeping), plus 3 per shard (around
   its two budget loops) and 2 around each of restructure's home passes.
   It sums the spans in flat float arrays of its own; this record is a
   snapshot view, filled from those sums by [Engine.profile].

   Alongside each wall-clock span the same brackets accumulate
   [Gc.minor_words] deltas, attributing the engine's minor-heap traffic
   to phases — the working measure for the allocation-free inner-loop
   budget ([minor_words_per_step] in the bench): when the bench gate
   trips, the per-phase words say which span regressed.

   The measured Amdahl serial fraction falls out directly:
   everything outside the sharded spans — the execution span and
   restructure's per-home passes — is serial by construction, so

     serial_fraction = (total - execute - restructure) / total

   is the ceiling on what domain-sharding can ever win. At [--domains 1] the sharded spans still count
   as parallelizable: the figure then reads "what fraction of this run
   a perfectly parallel machine could compress".

   Wall-clock readings never feed deterministic artifacts (traces,
   metrics JSON, golden lines); [dgr report --deterministic] and the
   deterministic bench rows zero them. Minor-word readings are exact
   counts, but the sharded engine's worker domains keep their own
   counters, so per-phase words are only attributed on the coordinating
   domain. *)

type t = {
  mutable steps : int;
  mutable minor_gcs : int;  (* minor collections over [Engine.run] *)
  mutable total_ns : float;
  mutable transport_ns : float;
  mutable execute_ns : float;  (* parallel(izable) sharded execution span *)
  mutable sexec_ns : float;  (* always 0: no step executes off the sharded path *)
  mutable merge_ns : float;
  (* Inside merge, where the barrier's time goes — the attack surface of
     the pay-as-you-go merge. *)
  mutable drain_ns : float;  (* inside merge: sub-recorder event drain *)
  mutable absorb_ns : float;  (* inside merge: metrics/reducer absorption *)
  mutable close_ns : float;  (* inside merge: batched lineage closes *)
  mutable pflush_ns : float;  (* always 0: the seal runs on the main domain *)
  mutable flush_ns : float;  (* inside merge: [Network.seal] *)
  mutable replay_ns : float;  (* inside merge: coop + controller replay *)
  mutable gc_ns : float;
  mutable book_ns : float;
  mutable restr_ns : float;  (* inside gc: restructure's sharded home passes *)
  mutable mark_ns : float;  (* inside execute: marking budget loops *)
  mutable red_ns : float;  (* inside execute: reduction budget loops *)
  mutable total_mw : float;  (* minor words, same brackets as the ns spans *)
  mutable transport_mw : float;
  mutable execute_mw : float;
  mutable sexec_mw : float;
  mutable merge_mw : float;
  mutable gc_mw : float;
  mutable book_mw : float;
  mutable main_parks : int;  (* the main domain parked on the shards' join *)
  mutable worker_parks : int;  (* a worker parked waiting for a job *)
  shard_ns : float array;  (* per shard: mark_ns + red_ns *)
}

let create () =
  {
    steps = 0;
    minor_gcs = 0;
    total_ns = 0.0;
    transport_ns = 0.0;
    execute_ns = 0.0;
    sexec_ns = 0.0;
    merge_ns = 0.0;
    drain_ns = 0.0;
    absorb_ns = 0.0;
    close_ns = 0.0;
    pflush_ns = 0.0;
    flush_ns = 0.0;
    replay_ns = 0.0;
    gc_ns = 0.0;
    book_ns = 0.0;
    restr_ns = 0.0;
    mark_ns = 0.0;
    red_ns = 0.0;
    total_mw = 0.0;
    transport_mw = 0.0;
    execute_mw = 0.0;
    sexec_mw = 0.0;
    merge_mw = 0.0;
    gc_mw = 0.0;
    book_mw = 0.0;
    main_parks = 0;
    worker_parks = 0;
    shard_ns = [||];
  }

let serial_fraction t =
  if t.total_ns <= 0.0 then 0.0
  else
    Float.max 0.0
      ((t.total_ns -. t.execute_ns -. t.restr_ns) /. t.total_ns)

(* Amdahl: the best speedup [domains] workers can extract when only the
   execution span parallelizes. *)
let amdahl_speedup t ~domains =
  let s = serial_fraction t in
  1.0 /. (s +. ((1.0 -. s) /. float_of_int (Stdlib.max 1 domains)))
