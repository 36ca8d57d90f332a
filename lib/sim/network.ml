open Dgr_util
open Dgr_task

(* Two regimes share this module, and both now speak in *batches*: every
   task staged on the same (src, dst) link for the same arrival step
   rides in one frame. Staging happens at [send]; the staged batches are
   flushed into the channel at the next [deliver_into] (the network's
   clock tick), which is also when the fault plane rolls its dice — one
   roll per frame, not per task.

   Without a fault plane the flushed batches sit in an arrival-keyed
   queue and drain exactly once in flush order among equals, preserving
   the paper's idealized-channel semantics at task granularity: a task's
   arrival step is unchanged, only its grouping into frames is new.

   With a fault plane, batches ride in [Data] frames over an
   at-most-once channel (Faults may drop, duplicate or delay any
   physical transmission; a dropped batch is retransmitted as a unit).
   Reliability is re-earned end to end with per-(src, dst) sequence
   numbers and *cumulative* acks: the receiver tracks the highest
   contiguous sequence per link and acks that watermark — piggybacked on
   a reverse-direction data frame when one is already going out this
   step, as a standalone [Ack] frame otherwise — so the reliable layer
   no longer generates one ack frame per data frame. Retransmission on
   timeout with exponential backoff and receiver-side dedup keyed on
   (src, dst, fseq) give the layer above every task exactly once, in a
   deterministic order for a fixed fault seed.

   On top of batching, the staging step *coalesces* mark waves: an
   identical mark task (same constructor, vertex, parent, priority)
   already staged in the batch absorbs the newcomer. The newcomer is
   never transmitted; instead [on_coalesce] fires so the engine can
   settle the mark/return accounting (synthesize the [Return] the
   dropped twin would have produced, or credit the flood counters). *)

(* Scalar fields are mutable so delivered frames can be recycled through
   a free list (lossless channel only — see [recycle_batch]): a storm
   step stages tens of frames, and re-initializing a dead record beats
   allocating record + two vectors + (eventually) an index table. *)
type batch = {
  mutable b_src : int;
  mutable b_dst : int;
  mutable b_arrival : int;  (* fault-free arrival step, the stable sort key *)
  mutable b_delay : int;  (* base link delay at stage time (incl. jitter) *)
  mutable b_uid : int;  (* global stage order; ties in in_flight/entries *)
  b_tasks : Task.t Vec.t;  (* shared with every queued copy of the frame *)
  b_stamps : int Vec.t;
      (* lineage tickets, parallel to [b_tasks] ([-1]: untracked); pruned
         in lock-step by [purge] so the pairing survives in-flight edits *)
  mutable b_marks : (Task.mark, unit) Hashtbl.t option;
      (* membership index over the staged coalescible marks, built only
         once the batch outgrows [mark_scan_limit]: typical batches stay
         small and scan linearly with zero extra allocation, while a
         mark wave piling hundreds of tasks onto one link in one step
         still gets an O(1) coalescing test instead of O(batch) *)
  mutable b_pack : bool;  (* claimed to carry the reverse link's cum ack *)
}

let mark_scan_limit = 16

type frame =
  | Data of { fseq : int; pack : int; credit : (int * int * int) option; batch : batch }
      (** [pack] piggybacks a cumulative ack for the reverse data link
          (batch.b_dst, batch.b_src); [min_int] when none is carried.
          [credit] piggybacks the sender's termination credit
          (epoch, sent, executed) — see {!set_credit_of}. *)
  | Ack of { a_src : int; a_dst : int; cum : int; credit : (int * int * int) option }
      (** cumulative ack for data link (a_src, a_dst): every fseq up to
          and including [cum] has been received; travels a_dst→a_src and
          carries a_dst's termination credit when one is due *)

type pending = {
  p_batch : batch;
  p_fseq : int;
  mutable p_attempts : int;
  mutable p_rto : int;
  mutable p_delivered : bool;  (* receiver got a copy; awaiting ack *)
}

type snd_link = {
  mutable snd_next : int;  (* next fseq to assign *)
  mutable snd_una : int;  (* lowest fseq not yet cumulatively acked *)
}

type rcv_link = {
  mutable rcv_next : int;  (* next fseq expected in order; cum = rcv_next - 1 *)
  ooo : (int, unit) Hashtbl.t;  (* received out of order, above rcv_next *)
}

type t = {
  q : batch Pqueue.t;  (* ideal channel (faults = None) *)
  fq : frame Pqueue.t;  (* lossy channel, arrival-keyed *)
  cq : (int * int * int * int) Pqueue.t;
      (* standalone termination credits (pe, epoch, sent, executed),
         arrival-keyed: the heartbeat path for PEs with no data or ack
         traffic to piggyback on. Loss-free by design — credits are
         idempotent advisories, and the heartbeat is the liveness
         backstop the lossy piggyback paths lean on *)
  recorder : Dgr_obs.Recorder.t option;
  lineage : Dgr_obs.Lineage.t option;
      (* when present, every reduction task sent gets a latency ticket:
         opened here (sends always run serially — inline or at the
         mailbox flush), marked delivered in [deliver_into], dropped by
         [purge] *)
  faults : Faults.t option;
  batching : bool;  (* false: one task per frame, no coalescing *)
  staged : batch Vec.t;  (* batches forming since the last flush *)
  (* Delivered frames awaiting reuse, segregated by destination
     (idealized channel only: under faults a frame outlives delivery in
     [pending] until its cumulative ack lands, so those are never
     recycled). Per-destination pools exist for the sharded barrier
     flush: each destination shard recycles frames for its own PEs
     without sharing a free list across domains. *)
  mutable sf_free : batch Vec.t array;
  mutable inbox : batch Vec.t array;
      (* delivered frames parked per destination until the destination's
         shard takes their marks (see [take_marks]) *)
  (* Destination-sharded flush plan (see [flush_shard_plan] and
     friends): forming proto-batches and a last-batch cache per
     destination — written by at most one shard each — plus a flat
     per-entry verdict, indexed by [sf_offs.(src) + i] for mailbox
     entry [i] of PE [src]. [sf_dummy] is the "no batch" sentinel, so
     the hot paths never box an option. *)
  sf_dummy : batch;
  mutable sf_batches : batch Vec.t array;  (* forming frames, by dst *)
  mutable sf_last : batch array;  (* per-dst last-batch cache *)
  mutable sf_offs : int array;  (* per-src entry offset into the plan *)
  mutable sf_vbatch : batch array;  (* per-entry: target proto-batch *)
  mutable sf_vidx : int array;  (* per-entry: slot in batch; -1 = coalesced *)
  snd : (int * int, snd_link) Hashtbl.t;  (* (src, dst) -> sender state *)
  rcv : (int * int, rcv_link) Hashtbl.t;  (* (src, dst) -> receiver state *)
  pending : (int * int * int, pending) Hashtbl.t;  (* unacked sends *)
  timers : (int * int * int) Pqueue.t;  (* fire step -> frame key *)
  owed : (int * int, int) Hashtbl.t;  (* data link -> ack base delay *)
  owed_order : (int * int) Vec.t;  (* links in first-owed order *)
  mutable last_batch : batch option;
      (* the batch the previous send staged into: sends cluster by link,
         so most lookups hit here without scanning [staged] *)
  mutable on_coalesce : pe:int -> Task.mark -> unit;
  mutable credit_of : int -> (int * int * int) option;
      (* the sending PE's current termination credit, sampled at each
         physical transmission (flush and retransmit alike, so a
         retransmitted frame carries *fresher* counters than the
         original — harmless, [Termination.learn] is monotone) *)
  mutable on_credit : pe:int -> epoch:int -> sent:int -> executed:int -> unit;
  mutable next_uid : int;
  mutable undelivered : int;  (* staged + in-channel task count *)
  mutable clock : int;  (* last [deliver ~now]; send-time reference *)
  (* transport counters, synced into Metrics by the engine each step *)
  mutable frames_sent : int;  (* initial data-frame flushes (both regimes) *)
  mutable acks_sent : int;  (* standalone cumulative-ack frames *)
  mutable acks_piggybacked : int;  (* cum acks carried on reverse data *)
  mutable tasks_sent : int;  (* tasks staged for transmission *)
  mutable marks_coalesced : int;  (* mark tasks absorbed before transmit *)
}

let dummy_batch () =
  {
    b_src = min_int;
    b_dst = min_int;
    b_arrival = min_int;
    b_delay = 0;
    b_uid = -1;
    b_tasks = Vec.create ();
    b_stamps = Vec.create ();
    b_marks = None;
    b_pack = false;
  }

let create ?recorder ?lineage ?faults ?(batch = true) () =
  let sf_dummy = dummy_batch () in
  {
    q = Pqueue.create ();
    fq = Pqueue.create ();
    cq = Pqueue.create ();
    recorder;
    lineage;
    faults;
    batching = batch;
    staged = Vec.create ();
    sf_free = [||];
    inbox = [||];
    sf_dummy;
    sf_batches = [||];
    sf_last = [||];
    sf_offs = [||];
    sf_vbatch = [||];
    sf_vidx = [||];
    snd = Hashtbl.create 16;
    rcv = Hashtbl.create 16;
    pending = Hashtbl.create 64;
    timers = Pqueue.create ();
    owed = Hashtbl.create 16;
    owed_order = Vec.create ();
    last_batch = None;
    on_coalesce = (fun ~pe:_ _ -> ());
    credit_of = (fun _ -> None);
    on_credit = (fun ~pe:_ ~epoch:_ ~sent:_ ~executed:_ -> ());
    next_uid = 0;
    undelivered = 0;
    clock = 0;
    frames_sent = 0;
    acks_sent = 0;
    acks_piggybacked = 0;
    tasks_sent = 0;
    marks_coalesced = 0;
  }

let set_on_coalesce t f = t.on_coalesce <- f
let set_credit_of t f = t.credit_of <- f
let set_on_credit t f = t.on_credit <- f

let post_credit t ~arrival ~pe ~epoch ~sent ~executed =
  Pqueue.add t.cq arrival (pe, epoch, sent, executed)

let apply_credit t ~pe credit =
  match credit with
  | Some (epoch, sent, executed) -> t.on_credit ~pe ~epoch ~sent ~executed
  | None -> ()

let frames_sent t = t.frames_sent
let acks_sent t = t.acks_sent
let acks_piggybacked t = t.acks_piggybacked
let tasks_sent t = t.tasks_sent
let marks_coalesced t = t.marks_coalesced
let unacked t = Hashtbl.length t.pending

let emit t kind =
  match t.recorder with None -> () | Some r -> Dgr_obs.Recorder.emit r kind

let obs_of task =
  (Task.obs_kind task, match Task.exec_vertex task with Some v -> v | None -> -1)

(* Drop/Dup/Retransmit events describe a whole frame via its head task —
   batches are never empty in the channel (fully-purged batches are
   removed outright), so [Vec.get 0] is safe. *)
let head_obs b = obs_of (Vec.get b.b_tasks 0)

let rto_cap = 1024

(* The sequence space is per-link and never wraps: links live as long as
   the machine, so at [seq_guard] sends on one link we fail loudly
   rather than let cumulative acks silently go backwards. *)
let seq_guard = max_int / 2

let snd_link_for t key =
  match Hashtbl.find_opt t.snd key with
  | Some l -> l
  | None ->
    let l = { snd_next = 0; snd_una = 0 } in
    Hashtbl.add t.snd key l;
    l

let rcv_link_for t key =
  match Hashtbl.find_opt t.rcv key with
  | Some l -> l
  | None ->
    let l = { rcv_next = 0; ooo = Hashtbl.create 8 } in
    Hashtbl.add t.rcv key l;
    l

(* Record fseq as received on (src, dst), advancing the contiguous
   watermark through any out-of-order backlog it unlocks. *)
let mark_received t ~src ~dst fseq =
  let rl = rcv_link_for t (src, dst) in
  if fseq >= rl.rcv_next then
    if fseq = rl.rcv_next then begin
      rl.rcv_next <- rl.rcv_next + 1;
      while Hashtbl.mem rl.ooo rl.rcv_next do
        Hashtbl.remove rl.ooo rl.rcv_next;
        rl.rcv_next <- rl.rcv_next + 1
      done
    end
    else Hashtbl.replace rl.ooo fseq ()

let already_received t ~src ~dst fseq =
  match Hashtbl.find_opt t.rcv (src, dst) with
  | None -> false
  | Some rl -> fseq < rl.rcv_next || Hashtbl.mem rl.ooo fseq

let cum_for t ~src ~dst =
  match Hashtbl.find_opt t.rcv (src, dst) with
  | None -> -1
  | Some rl -> rl.rcv_next - 1

(* A cumulative ack for link (src, dst): forget every pending send up to
   [cum]. Idempotent — older acks and already-forgotten (purged) seqs
   are no-ops. *)
let apply_cum t ~src ~dst cum =
  match Hashtbl.find_opt t.snd (src, dst) with
  | None -> ()
  | Some sl ->
    while sl.snd_una <= cum do
      Hashtbl.remove t.pending (src, dst, sl.snd_una);
      sl.snd_una <- sl.snd_una + 1
    done

(* The receiver owes the sender a cumulative ack: remember the link (and
   the triggering frame's base delay, for the ack's travel time). Every
   owed link is settled at the next flush — piggybacked or standalone —
   so [owed]/[owed_order] never carry across more than one step. *)
let owe_ack t ~src ~dst ~delay =
  if not (Hashtbl.mem t.owed (src, dst)) then Vec.push t.owed_order (src, dst);
  Hashtbl.replace t.owed (src, dst) delay

(* One physical transmission of a data frame through the fault plane:
   roll duplicate (two independent copies on a hit), then every copy
   rolls drop and extra delay. [arrival] is the fault-free arrival step;
   [base] the link delay that scales the fault plane's extra delay. *)
let transmit_data t f ~arrival ~base ~fseq ~pack b =
  let credit = t.credit_of b.b_src in
  let copies =
    if Faults.duplicates_frame f then begin
      let kind, vid = head_obs b in
      emit t (Dgr_obs.Event.Dup { kind; pe = b.b_dst; vid });
      2
    end
    else 1
  in
  for _ = 1 to copies do
    if Faults.drops_frame f then begin
      let kind, vid = head_obs b in
      emit t (Dgr_obs.Event.Drop { kind; pe = b.b_dst; vid })
    end
    else
      Pqueue.add t.fq
        (arrival + Faults.extra_delay f ~latency:base)
        (Data { fseq; pack; credit; batch = b })
  done

(* Acks roll drop and delay only — duplicating an ack is a no-op, and
   keeping it out of the stream keeps the dup counter equal to the
   number of Dup events. *)
let transmit_ack t f ~arrival ~base frame =
  if not (Faults.drops_frame f) then
    Pqueue.add t.fq (arrival + Faults.extra_delay f ~latency:base) frame

(* Flush the batches staged since the last tick into the channel, then
   (under faults) settle every owed cumulative ack. Fault-plane dice are
   rolled here, once per frame, in stage order. *)
let flush t f ~now =
  (* Piggyback claim, newest staged batch first: the *last* reverse
     frame of the step carries the ack, so it covers everything the
     receiver saw before this flush. Claiming removes the debt, which
     also stops earlier batches on the same link from claiming it. *)
  for i = Vec.length t.staged - 1 downto 0 do
    let b = Vec.get t.staged i in
    let reverse = (b.b_dst, b.b_src) in
    if Hashtbl.mem t.owed reverse then begin
      Hashtbl.remove t.owed reverse;
      b.b_pack <- true
    end
  done;
  Vec.iter
    (fun b ->
      let link = (b.b_src, b.b_dst) in
      let sl = snd_link_for t link in
      if sl.snd_next >= seq_guard then
        invalid_arg "Network.send: per-link sequence space exhausted";
      let fseq = sl.snd_next in
      sl.snd_next <- fseq + 1;
      let p =
        { p_batch = b; p_fseq = fseq; p_attempts = 1; p_rto = (2 * b.b_delay) + 2;
          p_delivered = false }
      in
      Hashtbl.replace t.pending (b.b_src, b.b_dst, fseq) p;
      Pqueue.add t.timers (now + p.p_rto) (b.b_src, b.b_dst, fseq);
      t.frames_sent <- t.frames_sent + 1;
      emit t
        (Dgr_obs.Event.Batch
           { src = b.b_src; dst = b.b_dst; count = Vec.length b.b_tasks });
      let pack =
        if b.b_pack then begin
          let cum = cum_for t ~src:b.b_dst ~dst:b.b_src in
          t.acks_piggybacked <- t.acks_piggybacked + 1;
          emit t
            (Dgr_obs.Event.Cum_ack
               { src = b.b_dst; dst = b.b_src; upto = cum; piggyback = true });
          cum
        end
        else min_int
      in
      transmit_data t f ~arrival:b.b_arrival ~base:b.b_delay ~fseq ~pack b)
    t.staged;
  Vec.clear t.staged;
  t.last_batch <- None;
  (* Standalone acks for links no reverse data frame covered. *)
  Vec.iter
    (fun (src, dst) ->
      match Hashtbl.find_opt t.owed (src, dst) with
      | None -> () (* piggybacked above *)
      | Some delay ->
        Hashtbl.remove t.owed (src, dst);
        let cum = cum_for t ~src ~dst in
        t.acks_sent <- t.acks_sent + 1;
        emit t (Dgr_obs.Event.Cum_ack { src; dst; upto = cum; piggyback = false });
        transmit_ack t f ~arrival:(now + delay) ~base:delay
          (Ack { a_src = src; a_dst = dst; cum; credit = t.credit_of dst }))
    t.owed_order;
  Vec.clear t.owed_order

(* Fault-free flush: batches go straight onto the ideal arrival-keyed
   queue. Stage order among equal arrivals is preserved by the queue's
   FIFO tie-breaking, so delivery order is deterministic. *)
let flush_ideal t =
  Vec.iter
    (fun b ->
      t.frames_sent <- t.frames_sent + 1;
      (match t.recorder with
      | None -> ()
      | Some r ->
        Dgr_obs.Recorder.emit r
          (Dgr_obs.Event.Batch
             { src = b.b_src; dst = b.b_dst; count = Vec.length b.b_tasks }));
      Pqueue.add t.q b.b_arrival b)
    t.staged;
  Vec.clear t.staged;
  t.last_batch <- None

(* Find the forming batch for (src, dst, arrival). Sends cluster by
   link (a PE drains its pool, a mark wave fans out), so the previous
   send's batch is checked first; otherwise a backward linear scan over
   the staged set — one forming batch per active (link, arrival), so it
   stays short. *)
let find_staged t ~src ~dst ~arrival =
  let matches b = b.b_src = src && b.b_dst = dst && b.b_arrival = arrival in
  match t.last_batch with
  | Some b when matches b -> Some b
  | _ ->
    let rec scan i =
      if i < 0 then None
      else
        let b = Vec.get t.staged i in
        if matches b then Some b else scan (i - 1)
    in
    scan (Vec.length t.staged - 1)

(* Is an identical coalescible mark already staged in this batch? Short
   batches scan the task vector directly; batches past [mark_scan_limit]
   are answered by their [b_marks] index. *)
let mark_staged b m =
  match b.b_marks with
  | Some tbl -> Hashtbl.mem tbl m
  | None ->
    Vec.exists
      (fun task ->
        match task with Task.Marking m' -> m' = m | Task.Reduction _ -> false)
      b.b_tasks

(* Called just before pushing mark [m]: once the push will take the
   batch past the scan limit, build the index over everything staged so
   far (a one-time O(batch) catch-up) and keep it current from then on. *)
let index_mark b m =
  match b.b_marks with
  | Some tbl -> Hashtbl.replace tbl m ()
  | None ->
    if Vec.length b.b_tasks >= mark_scan_limit then begin
      let tbl = Hashtbl.create (2 * mark_scan_limit) in
      Vec.iter
        (fun task ->
          match task with
          | Task.Marking (Task.Return _) | Task.Reduction _ -> ()
          | Task.Marking m' -> Hashtbl.replace tbl m' ())
        b.b_tasks;
      Hashtbl.replace tbl m ();
      b.b_marks <- Some tbl
    end

(* The free pool for frames bound for [dst], grown on demand (serial
   contexts only; the sharded grouping pass never resizes, it relies on
   [flush_shard_plan] having sized the array first). *)
let free_list_for t dst =
  let n = Array.length t.sf_free in
  if dst >= n then begin
    let a = Array.init (dst + 1) (fun i -> if i < n then t.sf_free.(i) else Vec.create ()) in
    t.sf_free <- a
  end;
  t.sf_free.(dst)

(* Pop a recycled frame from [fl], or allocate one. The caller fills the
   scalar header; vectors keep their storage and a retained (emptied)
   [b_marks] index answers membership exactly like a fresh scan over the
   empty batch. *)
let batch_for fl =
  let n_free = Vec.length fl in
  if n_free > 0 then begin
    let b = Vec.get fl (n_free - 1) in
    Vec.truncate fl (n_free - 1);
    b
  end
  else dummy_batch ()

let send ?(src = -1) ?(lin = -1) ?(depth = 0) t ~arrival ~pe task =
  let b =
    match if t.batching then find_staged t ~src ~dst:pe ~arrival else None with
    | Some b -> b
    | None ->
      let b = batch_for (free_list_for t pe) in
      b.b_src <- src;
      b.b_dst <- pe;
      b.b_arrival <- arrival;
      b.b_delay <- Int.max 1 (arrival - t.clock);
      b.b_uid <- t.next_uid;
      b.b_pack <- false;
      t.next_uid <- t.next_uid + 1;
      Vec.push t.staged b;
      b
  in
  (if t.batching then
     match t.last_batch with
     | Some lb when lb == b -> ()
     | _ -> t.last_batch <- Some b);
  (* Marks are flat scalar records, so the structural hashing and
     equality behind [b_marks] are exact; Returns never coalesce (each
     one carries a distinct mt-cnt credit) and reduction tasks are never
     compared (closures, and no two are semantically identical). *)
  match task with
  | Task.Marking m
    when (match m with Task.Return _ -> false | _ -> t.batching)
         && mark_staged b m ->
    t.marks_coalesced <- t.marks_coalesced + 1;
    (match t.recorder with
    | None -> ()
    | Some r ->
      Dgr_obs.Recorder.emit r
        (Dgr_obs.Event.Coalesce
           { pe; vid = (match Task.exec_vertex task with Some v -> v | None -> -1) }));
    (* state is consistent here: the callback may re-enter [send] (the
       engine stages the Return the dropped twin would have produced;
       Returns never coalesce, so recursion is depth 1) *)
    t.on_coalesce ~pe m
  | task ->
    (match task with
    | Task.Marking (Task.Return _) | Task.Reduction _ -> ()
    | Task.Marking m -> if t.batching then index_mark b m);
    (* Only reduction tasks are ticketed: marks may be coalesced away
       above (a leaked ticket would never close), and the latency story
       the histograms tell is about demand propagation, not the wave. *)
    let stamp =
      match (t.lineage, task) with
      | Some l, Task.Reduction _ ->
        Dgr_obs.Lineage.open_ticket l ~lin ~depth ~sent:t.clock ~arrival
      | _ -> -1
    in
    Vec.push b.b_tasks task;
    Vec.push b.b_stamps stamp;
    t.undelivered <- t.undelivered + 1;
    t.tasks_sent <- t.tasks_sent + 1

(* Delivery hands each due reduction task to [push] as its batch pops —
   the engine's pools consume directly, with no intermediate list. [push]
   also receives the task's lineage stamp ([-1]: untracked), which the
   pool carries through residence. Pops emit [Deliver] per task in pop
   order and [push] emits nothing, so interleaving push with pop keeps
   the trace deterministic. Mark tasks are left in the frame for
   [take_marks]; the result says whether the frame held any. *)
let deliver_batch t b ~now ~push =
  t.undelivered <- t.undelivered - Vec.length b.b_tasks;
  let marked = ref false in
  for i = 0 to Vec.length b.b_tasks - 1 do
    let task = Vec.get b.b_tasks i in
    let stamp = Vec.get b.b_stamps i in
    let lin =
      match t.lineage with
      | Some l when stamp >= 0 ->
        Dgr_obs.Lineage.deliver l stamp ~now;
        Dgr_obs.Lineage.lin_of l stamp
      | _ -> -1
    in
    (match t.recorder with
    | None -> ()
    | Some r ->
      Dgr_obs.Recorder.emit r
        (Dgr_obs.Event.Deliver
           {
             kind = Task.obs_kind task;
             pe = b.b_dst;
             vid = (match Task.exec_vertex task with Some v -> v | None -> -1);
             lin;
           }));
    match task with
    | Task.Reduction _ -> push b.b_dst stamp task
    | Task.Marking _ -> marked := true
  done;
  !marked

(* Return a delivered frame to its destination's free pool. Only the
   idealized channel may call this: after its pop the batch is
   referenced nowhere (staged was flushed, [last_batch] was reset by
   that flush), whereas the fault path keeps frames in [pending] until
   cumulatively acked. The mark index is emptied but kept allocated —
   [mark_staged] on an empty table is exactly the empty-batch scan. Each
   pool is capped so a burst does not pin its high-water mark of vectors
   forever. *)
let free_batches_cap = 32

let recycle_batch t b =
  let fl = free_list_for t b.b_dst in
  if Vec.length fl < free_batches_cap then begin
    Vec.clear b.b_tasks;
    Vec.clear b.b_stamps;
    (match b.b_marks with Some tbl -> Hashtbl.reset tbl | None -> ());
    Vec.push fl b
  end

(* Standalone credits drain in arrival order (FIFO among equals) in both
   regimes; [learn] is idempotent and order-insensitive anyway, so this
   order only matters for trace determinism. *)
let drain_credits t ~now =
  while
    Pqueue.min_prio t.cq ~default:max_int <= now
    && Pqueue.pop_tagged_with t.cq (fun (pe, epoch, sent, executed) _stamp ->
           t.on_credit ~pe ~epoch ~sent ~executed)
  do
    ()
  done

(* The parked frames for [dst], grown on demand (serial contexts only,
   like [free_list_for]). *)
let inbox_for t dst =
  let n = Array.length t.inbox in
  if dst >= n then
    t.inbox <- Array.init (dst + 1) (fun i -> if i < n then t.inbox.(i) else Vec.create ());
  t.inbox.(dst)

(* A delivered frame that holds a mark is parked in its destination's
   inbox for [take_marks]; a mark-free one is settled at once. A settled
   frame of the idealized channel is recycled; a lossy one stays in
   [pending] until its cumulative ack lands. *)
let settle t b ~now ~push =
  if deliver_batch t b ~now ~push then Vec.push (inbox_for t b.b_dst) b
  else if t.faults = None then recycle_batch t b

let deliver_serial t ~now ~push =
  t.clock <- now;
  drain_credits t ~now;
  match t.faults with
  | None ->
    flush_ideal t;
    (* Fast path: the idealized channel is a single peek/pop loop with
       no frame bookkeeping — the unboxed [min_prio]/[pop_tagged_with]
       pair pops due frames without building options or tuples — and
       [Deliver] event records are only constructed when a recorder is
       attached. *)
    while
      Pqueue.min_prio t.q ~default:max_int <= now
      && Pqueue.pop_tagged_with t.q (fun b _stamp -> settle t b ~now ~push)
    do
      ()
    done
  | Some f ->
    flush t f ~now;
    let rec drain () =
      match Pqueue.peek t.fq with
      | Some (arrival, _) when arrival <= now ->
        (match Pqueue.pop t.fq with
        | Some (_, Data { fseq; pack; credit; batch = b }) ->
          let src = b.b_src and dst = b.b_dst in
          (* a piggybacked cum ack settles the reverse data link *)
          if pack > min_int then apply_cum t ~src:dst ~dst:src pack;
          (* credits apply even on duplicate frames — idempotent *)
          apply_credit t ~pe:src credit;
          if already_received t ~src ~dst fseq then
            (* redelivery of a frame already seen (or whose batch was
               purged): suppress — this is the exactly-once edge *)
            f.Faults.dup_suppressed <- f.Faults.dup_suppressed + 1
          else begin
            mark_received t ~src ~dst fseq;
            (match Hashtbl.find_opt t.pending (src, dst, fseq) with
            | Some p -> p.p_delivered <- true
            | None -> ());
            settle t b ~now ~push
          end;
          (* always owe an ack, even for duplicates: the previous
             cumulative ack may have been lost *)
          owe_ack t ~src ~dst ~delay:b.b_delay;
          drain ()
        | Some (_, Ack { a_src; a_dst; cum; credit }) ->
          apply_cum t ~src:a_src ~dst:a_dst cum;
          apply_credit t ~pe:a_dst credit;
          drain ()
        | None -> ())
      | Some _ | None -> ()
    in
    drain ();
    let rec service_timers () =
      match Pqueue.peek t.timers with
      | Some (at, _) when at <= now ->
        (match Pqueue.pop t.timers with
        | Some (_, key) -> (
          match Hashtbl.find_opt t.pending key with
          | None -> () (* acked or purged; timer lazily deleted *)
          | Some p ->
            let b = p.p_batch in
            p.p_attempts <- p.p_attempts + 1;
            f.Faults.retransmits <- f.Faults.retransmits + 1;
            let kind, vid = head_obs b in
            emit t
              (Dgr_obs.Event.Retransmit
                 { kind; pe = b.b_dst; vid; attempt = p.p_attempts });
            (* the whole batch retransmits as a unit, without a
               piggybacked ack (the ack path has its own redundancy:
               every receipt re-owes the watermark) *)
            transmit_data t f ~arrival:(now + b.b_delay) ~base:b.b_delay
              ~fseq:p.p_fseq ~pack:min_int b;
            p.p_rto <- Int.min (p.p_rto * 2) rto_cap;
            Pqueue.add t.timers (now + p.p_rto) key)
        | None -> ());
        service_timers ()
      | Some _ | None -> ()
    in
    service_timers ()

(* Runs on [pe]'s shard, possibly on a worker domain: it touches only
   [pe]'s inbox and free pool, both sized by the serial half. A parked
   frame is referenced nowhere else on the idealized channel, so it is
   recycled here; under faults it waits in [pending] for its ack. *)
let take_marks t ~pe f =
  if pe < Array.length t.inbox then begin
    let ib = t.inbox.(pe) in
    for k = 0 to Vec.length ib - 1 do
      let b = Vec.get ib k in
      for i = 0 to Vec.length b.b_tasks - 1 do
        match Vec.get b.b_tasks i with
        | Task.Marking _ as task -> f task
        | Task.Reduction _ -> ()
      done;
      if t.faults = None then recycle_batch t b
    done;
    Vec.clear ib
  end

(* The whole tick on one domain: the serial half, then every PE's marks
   in ascending PE order. *)
let deliver_into t ~now ~push =
  deliver_serial t ~now ~push;
  for pe = 0 to Array.length t.inbox - 1 do
    take_marks t ~pe (fun task -> push pe (-1) task)
  done

let deliver t ~now =
  let acc = ref [] in
  deliver_into t ~now ~push:(fun pe _stamp task -> acc := (pe, task) :: !acc);
  List.rev !acc

(* Undelivered batches in fault-free arrival order, stage order among
   equals — deterministic regardless of hash-table or heap layout.
   Staged batches (sent this step, flushing next tick) are included:
   between ticks they are exactly as in-flight as queued ones. *)
let sorted_batches t =
  let acc = ref [] in
  (match t.faults with
  | None -> Pqueue.iter (fun _ b -> acc := b :: !acc) t.q
  | Some _ ->
    Hashtbl.iter (fun _ p -> if not p.p_delivered then acc := p.p_batch :: !acc) t.pending);
  Vec.iter (fun b -> acc := b :: !acc) t.staged;
  List.sort
    (fun a b ->
      match compare a.b_arrival b.b_arrival with 0 -> compare a.b_uid b.b_uid | c -> c)
    !acc

let in_flight t =
  List.concat_map (fun b -> Vec.to_list b.b_tasks) (sorted_batches t)

let iter_in_flight t f =
  let visit b = Vec.iter f b.b_tasks in
  (match t.faults with
  | None -> Pqueue.iter (fun _ b -> visit b) t.q
  | Some _ -> Hashtbl.iter (fun _ p -> if not p.p_delivered then visit p.p_batch) t.pending);
  Vec.iter visit t.staged

let iter_in_flight_dst t f =
  let visit b = Vec.iter (fun task -> f ~dst:b.b_dst task) b.b_tasks in
  (match t.faults with
  | None -> Pqueue.iter (fun _ b -> visit b) t.q
  | Some _ -> Hashtbl.iter (fun _ p -> if not p.p_delivered then visit p.p_batch) t.pending);
  Vec.iter visit t.staged

let entries t =
  List.concat_map
    (fun b -> List.map (fun task -> (b.b_arrival, task)) (Vec.to_list b.b_tasks))
    (sorted_batches t)

let emit_purges t counts =
  List.iter
    (fun (pe, n) -> emit t (Dgr_obs.Event.Purge { pe; count = n }))
    (List.sort compare counts)

let counts_of_tbl tbl = Hashtbl.fold (fun pe n acc -> (pe, !n) :: acc) tbl []

let bump tbl pe =
  match Hashtbl.find_opt tbl pe with
  | Some n -> incr n
  | None -> Hashtbl.add tbl pe (ref 1)

(* Purge filters tasks *inside* batches. Queued frame copies share the
   batch's task vector, so pruning a pending batch prunes every copy in
   the channel at once. A batch emptied before it ever flushed simply
   disappears; one emptied while in the channel leaves a sequence hole,
   which the receiver is told to treat as received — cumulative acks
   then skip over it and its queued copies are discarded, so survivors
   on the link are neither blocked nor double-acked. *)
let purge t pred =
  let per_pe = Hashtbl.create 8 in
  let removed = ref 0 in
  let prune b =
    let before = Vec.length b.b_tasks in
    let j = ref 0 in
    for i = 0 to before - 1 do
      let task = Vec.get b.b_tasks i in
      let stamp = Vec.get b.b_stamps i in
      if pred task then begin
        bump per_pe b.b_dst;
        (* a still-staged batch may yet coalesce: the purged mark must
           not absorb a later identical send as a ghost *)
        (match (task, b.b_marks) with
        | (Task.Marking (Task.Return _) | Task.Reduction _), _ | _, None -> ()
        | Task.Marking m, Some tbl -> Hashtbl.remove tbl m);
        match t.lineage with
        | Some l when stamp >= 0 -> Dgr_obs.Lineage.drop l stamp
        | _ -> ()
      end
      else begin
        if !j <> i then begin
          Vec.set b.b_tasks !j task;
          Vec.set b.b_stamps !j stamp
        end;
        incr j
      end
    done;
    Vec.truncate b.b_tasks !j;
    Vec.truncate b.b_stamps !j;
    let n = before - !j in
    removed := !removed + n;
    t.undelivered <- t.undelivered - n;
    !j = 0
  in
  Vec.filter_in_place (fun b -> not (prune b)) t.staged;
  (match t.faults with
  | None -> Pqueue.filter_in_place (fun _ b -> not (prune b)) t.q
  | Some _ ->
    let victims =
      Hashtbl.fold
        (fun key p acc -> if not p.p_delivered then (key, p) :: acc else acc)
        t.pending []
    in
    let holes = Hashtbl.create 8 in
    List.iter
      (fun ((src, dst, fseq) as key, p) ->
        if prune p.p_batch then begin
          Hashtbl.remove t.pending key;
          Hashtbl.replace holes key ();
          mark_received t ~src ~dst fseq
        end)
      victims;
    (* discard queued copies of emptied batches too, so they are
       neither delivered nor miscounted as duplicates when they arrive *)
    if Hashtbl.length holes > 0 then
      Pqueue.filter_in_place
        (fun _ frame ->
          match frame with
          | Data { fseq; batch = b; _ } ->
            not (Hashtbl.mem holes (b.b_src, b.b_dst, fseq))
          | Ack _ -> true)
        t.fq);
  if !removed > 0 then emit_purges t (counts_of_tbl per_pe);
  !removed

let size t = t.undelivered

(* Test hook: fast-forward a link's sender sequence to exercise the
   wraparound guard without billions of sends. *)
let set_link_seq t ~src ~dst n =
  let sl = snd_link_for t (src, dst) in
  sl.snd_next <- n;
  sl.snd_una <- n

(* A PE crash severs every link touching [pe], both directions, all at
   once: staged batches, unacked sends, queued frame copies, retransmit
   timers, owed acks, and — crucially — the per-link seq state on both
   ends, so the link restarts at fseq 0 when traffic resumes. Resetting
   seqs without dedup false-positives is only sound because every frame
   that could carry an old seq dies in the same call: there is nothing
   left in the channel to collide with the reused numbers, and stale
   timers are filtered rather than lazily dropped so a fresh send's
   (src, dst, 0) key cannot be retransmitted by a dead PE's timer.
   Returns the number of undelivered tasks lost; their lineage tickets
   are dropped. Delivered-but-unacked batches lose only their ack state
   (the receiver already has the tasks). *)
let crash_pe t ~pe =
  let lost = ref 0 in
  let touches b = b.b_src = pe || b.b_dst = pe in
  let forget_batch b =
    let n = Vec.length b.b_tasks in
    lost := !lost + n;
    t.undelivered <- t.undelivered - n;
    match t.lineage with
    | None -> ()
    | Some l ->
      Vec.iter (fun stamp -> if stamp >= 0 then Dgr_obs.Lineage.drop l stamp) b.b_stamps
  in
  Vec.filter_in_place
    (fun b ->
      if touches b then begin
        forget_batch b;
        false
      end
      else true)
    t.staged;
  (match t.last_batch with
  | Some b when touches b -> t.last_batch <- None
  | Some _ | None -> ());
  (match t.faults with
  | None ->
    (* ideal channel (a crash injected without a fault plane) *)
    Pqueue.filter_in_place
      (fun _ b ->
        if touches b then begin
          forget_batch b;
          false
        end
        else true)
      t.q
  | Some _ ->
    let victims =
      Hashtbl.fold
        (fun ((s, d, _) as key) p acc ->
          if s = pe || d = pe then (key, p) :: acc else acc)
        t.pending []
    in
    List.iter
      (fun (key, p) ->
        Hashtbl.remove t.pending key;
        if not p.p_delivered then forget_batch p.p_batch)
      victims;
    Pqueue.filter_in_place
      (fun _ frame ->
        match frame with
        | Data { batch = b; _ } -> not (touches b)
        | Ack { a_src; a_dst; _ } -> a_src <> pe && a_dst <> pe)
      t.fq;
    Pqueue.filter_in_place (fun _ (s, d, _) -> s <> pe && d <> pe) t.timers);
  (* in-flight heartbeat credits from the dead PE die with it *)
  Pqueue.filter_in_place (fun _ (p, _, _, _) -> p <> pe) t.cq;
  let purge_links tbl =
    let doomed =
      Hashtbl.fold (fun ((s, d) as k) _ acc -> if s = pe || d = pe then k :: acc else acc) tbl []
    in
    List.iter (Hashtbl.remove tbl) doomed
  in
  purge_links t.snd;
  purge_links t.rcv;
  purge_links t.owed;
  Vec.filter_in_place (fun (s, d) -> s <> pe && d <> pe) t.owed_order;
  !lost

(* Per-PE outgoing buffer for the sharded engine. A PE executing on a
   worker domain never touches the shared staging area directly: it
   posts into its private mailbox, and the engine flushes all mailboxes
   into the network at the step barrier in ascending PE order. Flushing
   preserves each mailbox's post order, and staging groups tasks by
   (src, dst, arrival) irrespective of post interleaving, so the merged
   batches equal the serial engine's — independent of which domain ran
   which PE when. *)
module Mailbox = struct
  type entry = {
    e_src : int;
    e_arrival : int;
    e_pe : int;
    e_lin : int;
    e_depth : int;
    e_task : Task.t;
  }

  type mb = entry Vec.t

  let create () : mb = Vec.create ()

  let post (mb : mb) ?(lin = -1) ?(depth = 0) ~src ~arrival ~pe task =
    Vec.push mb
      { e_src = src; e_arrival = arrival; e_pe = pe; e_lin = lin; e_depth = depth;
        e_task = task }

  let length (mb : mb) = Vec.length mb

  let flush (mb : mb) net =
    Vec.iter
      (fun e ->
        send ~src:e.e_src ~lin:e.e_lin ~depth:e.e_depth net ~arrival:e.e_arrival
          ~pe:e.e_pe e.e_task)
      mb;
    Vec.clear mb

  type t = mb
end

(* ---- Destination-sharded mailbox flush --------------------------------
   The barrier flush split in two, so the grouping half can run on the
   worker pool.

   Everything [send] computes per mailbox entry falls into two classes:

   - {e per-destination} state: which (src, arrival) frame the task
     joins, whether an identical mark is already staged there (the
     coalescing test), the frame's mark index and task/stamp vectors.
     Frames are keyed by destination, so this state is disjoint across
     destinations — [flush_shard_group] partitions the destination space
     and lets each shard group its own PEs' inbound entries in parallel.
     Each shard scans every mailbox in ascending src order and takes
     post order within one, so the entries of one destination are
     visited in exactly the order the serial flush would visit them
     (the global order is src-major; restricting a src-major order to
     one destination preserves it), making each shard's grouping a pure
     function of the mailboxes. Coalescing is decidable in this pass
     because a secondary send fired by [on_coalesce] carries src = -1
     and can never join a mailbox entry's (src >= 0) frame.

   - {e globally ordered} state: frame uids and their [staged] order,
     lineage ticket slots, the [on_coalesce] callbacks (whose synthetic
     Returns draw the controller's jitter stream), and the send
     counters. [flush_shard_finalize] replays the verdicts in the
     serial flush's exact global order and performs only this part, so
     uids, ticket slots, rng draws, events and counters are
     byte-identical to the serial flush — at every domain count, the
     sharded flush and [Mailbox.flush] over the same mailboxes leave
     the network in the same state. *)

(* Size the plan for [mbs] and publish the per-src offsets. The staged
   area must be empty — a forming frame could already match a mailbox
   entry's key, and the grouping pass does not look there. The engine's
   barrier always runs on an empty staged area: delivery flushed it at
   the top of the step. *)
let flush_shard_plan t (mbs : Mailbox.mb array) =
  let staged = Vec.length t.staged in
  if staged > 0 then
    invalid_arg
      (Printf.sprintf "Network.flush_shard_plan: %d frame(s) already staged" staged)
  else begin
    let n = Array.length mbs in
    ignore (free_list_for t (n - 1));
    if Array.length t.sf_batches < n then begin
      let old_b = t.sf_batches and old_l = t.sf_last in
      let nb = Array.length old_b in
      t.sf_batches <-
        Array.init n (fun i -> if i < nb then old_b.(i) else Vec.create ());
      t.sf_last <- Array.init n (fun i -> if i < nb then old_l.(i) else t.sf_dummy)
    end;
    if Array.length t.sf_offs < n + 1 then t.sf_offs <- Array.make (n + 1) 0;
    let total = ref 0 in
    for src = 0 to n - 1 do
      t.sf_offs.(src) <- !total;
      total := !total + Mailbox.length mbs.(src)
    done;
    t.sf_offs.(n) <- !total;
    if Array.length t.sf_vidx < !total then begin
      let cap = Stdlib.max 64 (2 * !total) in
      t.sf_vidx <- Array.make cap 0;
      t.sf_vbatch <- Array.make cap t.sf_dummy
    end
  end

(* The forming frame for (src, arrival) bound for [dst], or [sf_dummy].
   Same lookup as [find_staged] restricted to one destination: the
   last-batch cache first, then a backward scan — the dummy's negative
   header fields can never match a real (src >= 0) key. *)
let sf_find t ~dst ~src ~arrival =
  let last = t.sf_last.(dst) in
  if last.b_src = src && last.b_arrival = arrival then last
  else begin
    let bs = t.sf_batches.(dst) in
    let rec scan i =
      if i < 0 then t.sf_dummy
      else
        let b = Vec.get bs i in
        if b.b_src = src && b.b_arrival = arrival then b else scan (i - 1)
    in
    scan (Vec.length bs - 1)
  end

(* Group the mailbox entries bound for destinations [lo, hi) into
   proto-frames, and record each entry's verdict: the (frame, slot) it
   joined, or coalesced. Touches only per-destination state of its own
   range, so shards over disjoint ranges run concurrently; run over the
   full range it is the serial grouping. Frame uids, [staged], tickets
   and counters are untouched — that is [flush_shard_finalize]'s. *)
let flush_shard_group t (mbs : Mailbox.mb array) ~lo ~hi =
  for src = 0 to Array.length mbs - 1 do
    let mb = mbs.(src) in
    let data = Vec.unsafe_data mb in
    let base = t.sf_offs.(src) in
    for i = 0 to Mailbox.length mb - 1 do
      let e = data.(i) in
      let dst = e.Mailbox.e_pe in
      if dst >= lo && dst < hi then begin
        let arrival = e.Mailbox.e_arrival in
        let b =
          if not t.batching then t.sf_dummy else sf_find t ~dst ~src ~arrival
        in
        let b =
          if b != t.sf_dummy then b
          else begin
            let b = batch_for t.sf_free.(dst) in
            b.b_src <- src;
            b.b_dst <- dst;
            b.b_arrival <- arrival;
            b.b_delay <- Int.max 1 (arrival - t.clock);
            b.b_uid <- -1;  (* staged (and numbered) at finalize *)
            b.b_pack <- false;
            Vec.push t.sf_batches.(dst) b;
            if t.batching then t.sf_last.(dst) <- b;
            b
          end
        in
        match e.Mailbox.e_task with
        | Task.Marking m
          when (match m with Task.Return _ -> false | _ -> t.batching)
               && mark_staged b m ->
          t.sf_vidx.(base + i) <- -1
        | task ->
          (match task with
          | Task.Marking (Task.Return _) | Task.Reduction _ -> ()
          | Task.Marking m -> if t.batching then index_mark b m);
          t.sf_vbatch.(base + i) <- b;
          t.sf_vidx.(base + i) <- Vec.length b.b_tasks;
          Vec.push b.b_tasks task;
          Vec.push b.b_stamps (-1)
      end
    done
  done

(* Replay the verdicts in the serial flush's global order (ascending
   src, post order within a mailbox): number and stage each frame at its
   first kept entry — a frame's first entry is always kept (there is
   nothing in a fresh frame to coalesce against), so staging order
   equals the serial flush's creation order — open lineage tickets in
   slot-allocation order, fire [on_coalesce] (whose synthetic sends
   stage and draw jitter exactly where the serial flush would), and
   settle the counters. Clears the mailboxes and the plan. *)
let flush_shard_finalize t (mbs : Mailbox.mb array) =
  let n = Array.length mbs in
  for src = 0 to n - 1 do
    let mb = mbs.(src) in
    let data = Vec.unsafe_data mb in
    let base = t.sf_offs.(src) in
    for i = 0 to Mailbox.length mb - 1 do
      let e = data.(i) in
      if t.sf_vidx.(base + i) < 0 then begin
        t.marks_coalesced <- t.marks_coalesced + 1;
        (match t.recorder with
        | None -> ()
        | Some r ->
          Dgr_obs.Recorder.emit r
            (Dgr_obs.Event.Coalesce
               {
                 pe = e.Mailbox.e_pe;
                 vid =
                   (match Task.exec_vertex e.Mailbox.e_task with
                   | Some v -> v
                   | None -> -1);
               }));
        match e.Mailbox.e_task with
        | Task.Marking m -> t.on_coalesce ~pe:e.Mailbox.e_pe m
        | Task.Reduction _ -> assert false (* only marks coalesce *)
      end
      else begin
        let idx = t.sf_vidx.(base + i) in
        let b = t.sf_vbatch.(base + i) in
        t.sf_vbatch.(base + i) <- t.sf_dummy;
        if b.b_uid < 0 then begin
          b.b_uid <- t.next_uid;
          t.next_uid <- t.next_uid + 1;
          Vec.push t.staged b
        end;
        (match (t.lineage, e.Mailbox.e_task) with
        | Some l, Task.Reduction _ ->
          Vec.set b.b_stamps idx
            (Dgr_obs.Lineage.open_ticket l ~lin:e.Mailbox.e_lin
               ~depth:e.Mailbox.e_depth ~sent:t.clock ~arrival:e.Mailbox.e_arrival)
        | _ -> ());
        t.undelivered <- t.undelivered + 1;
        t.tasks_sent <- t.tasks_sent + 1
      end
    done;
    Vec.clear mb
  done;
  for dst = 0 to n - 1 do
    Vec.clear t.sf_batches.(dst);
    t.sf_last.(dst) <- t.sf_dummy
  done
