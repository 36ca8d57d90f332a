open Dgr_util
open Dgr_task

(* Two regimes share this module, and both speak in *batches*: every
   task staged on the same (src, dst) link for the same arrival step
   rides in one frame, built by its sender: every send stages through
   one lookup in the sending PE's own [sender] record. In the shard
   phase a PE's shard writes only its record, and [seal] then numbers
   the new frames PE by PE. The staged batches are flushed into the
   channel at the next [deliver_serial] (the network's clock tick),
   which is also when the fault plane rolls its dice — one roll per
   frame, not per task.

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

   Batching only groups: every task sent is delivered, marks included.
   Two identical marks staged on one link for one step ride as two
   entries of the frame and execute twice at the destination, exactly
   as the paper's one-task-per-edge model sends them. *)

(* A growable buffer of int lanes. Local to this module so the per-task
   pushes and reads are direct, monomorphic array accesses: no write
   barrier, no call through a polymorphic vector. *)
module Lanes = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let get l i =
    if i < 0 || i >= l.n then invalid_arg "Network.Lanes.get: index out of bounds";
    Array.unsafe_get l.a i

  let set l i x =
    if i < 0 || i >= l.n then invalid_arg "Network.Lanes.set: index out of bounds";
    Array.unsafe_set l.a i x

  (* Room for [k] more lanes. *)
  let reserve l k =
    let n = l.n in
    if n + k > Array.length l.a then begin
      let a = Array.make (Int.max 24 (2 * (n + k))) 0 in
      Array.blit l.a 0 a 0 n;
      l.a <- a
    end

  let push3 l x y z =
    reserve l 3;
    let n = l.n in
    Array.unsafe_set l.a n x;
    Array.unsafe_set l.a (n + 1) y;
    Array.unsafe_set l.a (n + 2) z;
    l.n <- n + 3

  let push2 l x y =
    reserve l 2;
    let n = l.n in
    Array.unsafe_set l.a n x;
    Array.unsafe_set l.a (n + 1) y;
    l.n <- n + 2
end

(* Scalar fields are mutable so delivered frames can be recycled through
   a free list (lossless channel only — see [recycle_batch]): a storm
   step stages tens of frames, and re-initializing a dead record beats
   allocating record + two vectors. *)
type batch = {
  mutable b_src : int;
  mutable b_dst : int;
  mutable b_arrival : int;  (* fault-free arrival step, the stable sort key *)
  mutable b_delay : int;  (* base link delay at stage time (incl. jitter) *)
  mutable b_uid : int;  (* global stage order; ties in in_flight/entries *)
  (* The frame's tasks, in stage order, shared with every queued copy of
     the frame. A mark is three lanes [v; par; meta] (see [Task.sink]); a
     reduction is the lane triple [0; 0; -1] standing for the next task
     of [b_reds]. *)
  b_lanes : Lanes.t;
  b_reds : Task.t Vec.t;
  b_stamps : int Vec.t;
      (* lineage tickets, parallel to [b_reds] ([-1]: untracked); pruned
         in lock-step by [purge] so the pairing survives in-flight edits *)
  mutable b_pack : bool;  (* claimed to carry the reverse link's cum ack *)
}

(* The idealized channel: flushed frames bucketed by fault-free arrival
   step, buckets in ascending arrival order and each bucket in flush
   order — exactly the order an arrival-keyed heap with FIFO ties pops,
   without a heap sift per frame (on a storm that sift is a visible part
   of the serial delivery pass, which runs once per step). Distinct pending arrivals are few (at
   most the largest link delay), so [add] finds its bucket by a short
   scan from the newest end. *)
module Ideal = struct
  type t = {
    mutable at : int array;  (* bucket arrival steps, ascending *)
    mutable frames : batch Vec.t array;  (* parallel to [at] *)
    mutable n : int;
    spare : batch Vec.t Vec.t;  (* drained bucket vectors, for reuse *)
  }

  let create () = { at = [||]; frames = [||]; n = 0; spare = Vec.create () }

  (* Open an empty bucket for [arrival] at position [i]. *)
  let insert q i arrival =
    if q.n = Array.length q.at then begin
      let cap = Int.max 8 (2 * q.n) in
      let at = Array.make cap 0 and frames = Array.make cap (Vec.create ()) in
      Array.blit q.at 0 at 0 q.n;
      Array.blit q.frames 0 frames 0 q.n;
      q.at <- at;
      q.frames <- frames
    end;
    Array.blit q.at i q.at (i + 1) (q.n - i);
    Array.blit q.frames i q.frames (i + 1) (q.n - i);
    q.at.(i) <- arrival;
    let ns = Vec.length q.spare in
    q.frames.(i) <-
      (if ns = 0 then Vec.create ()
       else begin
         let v = Vec.get q.spare (ns - 1) in
         Vec.truncate q.spare (ns - 1);
         v
       end);
    q.n <- q.n + 1

  let add q b =
    let a = b.b_arrival in
    let i = ref (q.n - 1) in
    while !i >= 0 && q.at.(!i) > a do
      decr i
    done;
    if !i < 0 || q.at.(!i) <> a then begin
      incr i;
      insert q !i a
    end;
    Vec.push q.frames.(!i) b

  (* Hand every frame due by [now] to [f], in delivery order. *)
  let drain_due q ~now f =
    while q.n > 0 && q.at.(0) <= now do
      let v = q.frames.(0) in
      q.n <- q.n - 1;
      Array.blit q.at 1 q.at 0 q.n;
      Array.blit q.frames 1 q.frames 0 q.n;
      for k = 0 to Vec.length v - 1 do
        f (Vec.get v k)
      done;
      Vec.clear v;
      Vec.push q.spare v
    done

  let iter f q =
    for i = 0 to q.n - 1 do
      Vec.iter f q.frames.(i)
    done

  let filter_in_place keep q =
    for i = 0 to q.n - 1 do
      Vec.filter_in_place keep q.frames.(i)
    done
end

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

(* A source's staging state, [senders.(src + 1)]: in the shard phase
   only its own shard writes it. *)
type sender = {
  mutable forming : batch Vec.t array;
      (* per destination: the link's forming frames, one per arrival;
         cleared and rebuilt with [staged] *)
  opened : batch Vec.t;  (* frames opened this shard phase, unnumbered *)
  tickets : batch Vec.t;  (* this shard phase's reductions, post order... *)
  ticket_args : Lanes.t;  (* ...and their [slot; lin; depth], for [seal] *)
  free : batch Vec.t;  (* delivered frames of this sender, for reuse *)
  mutable tasks : int;  (* tasks staged this shard phase *)
}

type t = {
  q : Ideal.t;  (* ideal channel (faults = None) *)
  fq : frame Pqueue.t;  (* lossy channel, arrival-keyed *)
  cq : Lanes.t;
      (* standalone termination credits, five lanes each [arrival; pe;
         epoch; sent; executed], oldest from lane [cq_head]: the
         heartbeat path for PEs with no data or ack traffic to piggyback
         on. Arrivals never decrease ([post_credit] refuses one that
         would), so a FIFO is arrival order. Loss-free by design —
         credits are idempotent advisories, and the heartbeat is the
         liveness backstop the lossy piggyback paths lean on *)
  mutable cq_head : int;
  recorder : Dgr_obs.Recorder.t option;
  lineage : Dgr_obs.Lineage.t option;
      (* when present, every reduction task sent gets a latency ticket:
         opened on the main domain (by the send, or by [seal]), marked
         delivered in [deliver_serial], dropped by [purge] *)
  faults : Faults.t option;
  batching : bool;  (* false: one task per frame *)
  staged : batch Vec.t;  (* numbered batches forming since the last flush *)
  sf_dummy : batch;  (* "no frame": the lookup's miss, never boxed *)
  mutable senders : sender array;  (* [src + 1] -> sender; sized by [reserve] *)
  mutable sharding : bool;  (* between [shard_phase] and [seal] *)
  mutable inbox : batch Vec.t array;
      (* delivered frames parked per destination until the destination's
         shard takes their marks (see [take_mark_lanes]) *)
  mutable spent : batch Vec.t array;
      (* per destination: frames its shard emptied, recycled at the next
         tick — never onto a free list another domain pops *)
  snd : (int * int, snd_link) Hashtbl.t;  (* (src, dst) -> sender state *)
  rcv : (int * int, rcv_link) Hashtbl.t;  (* (src, dst) -> receiver state *)
  pending : (int * int * int, pending) Hashtbl.t;  (* unacked sends *)
  timers : (int * int * int) Pqueue.t;  (* fire step -> frame key *)
  owed : (int * int, int) Hashtbl.t;  (* data link -> ack base delay *)
  owed_order : (int * int) Vec.t;  (* links in first-owed order *)
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
}

let dummy_batch () =
  {
    b_src = min_int;
    b_dst = min_int;
    b_arrival = min_int;
    b_delay = 0;
    b_uid = -1;
    b_lanes = Lanes.create ();
    b_reds = Vec.create ();
    b_stamps = Vec.create ();
    b_pack = false;
  }

let create ?recorder ?lineage ?faults ?(batch = true) () =
  {
    q = Ideal.create ();
    fq = Pqueue.create ();
    cq = Lanes.create ();
    cq_head = 0;
    recorder;
    lineage;
    faults;
    batching = batch;
    staged = Vec.create ();
    sf_dummy = dummy_batch ();
    senders = [||];
    sharding = false;
    inbox = [||];
    spent = [||];
    snd = Hashtbl.create 16;
    rcv = Hashtbl.create 16;
    pending = Hashtbl.create 64;
    timers = Pqueue.create ();
    owed = Hashtbl.create 16;
    owed_order = Vec.create ();
    credit_of = (fun _ -> None);
    on_credit = (fun ~pe:_ ~epoch:_ ~sent:_ ~executed:_ -> ());
    next_uid = 0;
    undelivered = 0;
    clock = 0;
    frames_sent = 0;
    acks_sent = 0;
    acks_piggybacked = 0;
    tasks_sent = 0;
  }

let set_credit_of t f = t.credit_of <- f
let set_on_credit t f = t.on_credit <- f

let post_credit t ~arrival ~pe ~epoch ~sent ~executed =
  let q = t.cq in
  if q.Lanes.n > t.cq_head && arrival < q.Lanes.a.(q.Lanes.n - 5) then
    invalid_arg
      (Printf.sprintf "Network.post_credit: arrival %d before the queued %d" arrival
         q.Lanes.a.(q.Lanes.n - 5));
  Lanes.push3 q arrival pe epoch;
  Lanes.push2 q sent executed

let apply_credit t ~pe credit =
  match credit with
  | Some (epoch, sent, executed) -> t.on_credit ~pe ~epoch ~sent ~executed
  | None -> ()

let frames_sent t = t.frames_sent
let acks_sent t = t.acks_sent
let acks_piggybacked t = t.acks_piggybacked
let tasks_sent t = t.tasks_sent
let unacked t = Hashtbl.length t.pending

let emit t kind =
  match t.recorder with None -> () | Some r -> Dgr_obs.Recorder.emit r kind

let n_tasks b = b.b_lanes.Lanes.n / 3

(* Lane [k] (0: v, 1: par, 2: meta) of the frame's [i]-th task. *)
let lane b i k = Lanes.get b.b_lanes ((3 * i) + k)

(* The frame's tasks in stage order, marks as views: the in-flight
   listings' form (built backwards, so the reductions are taken from
   the end of [b_reds]). *)
let views b =
  let r = ref (Vec.length b.b_reds) and acc = ref [] in
  for i = n_tasks b - 1 downto 0 do
    let meta = lane b i 2 in
    let task =
      if meta >= 0 then Task.Marking (Task.mark_of_lanes (lane b i 0) (lane b i 1) meta)
      else begin
        decr r;
        Vec.get b.b_reds !r
      end
    in
    acc := task :: !acc
  done;
  !acc

(* Drop/Dup/Retransmit events describe a whole frame via its head task —
   batches are never empty in the channel (fully-purged batches are
   removed outright), so the head exists. *)
let head_obs b =
  let meta = lane b 0 2 in
  if meta >= 0 then
    (Task.obs_kind_of_meta meta, Task.lanes_exec_vid (lane b 0 0) (lane b 0 1) meta)
  else
    let task = Vec.get b.b_reds 0 in
    (Task.obs_kind task, Task.exec_vid task)

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

(* Drop [staged]'s frames from their senders' indexes; call before
   [staged] is cleared or filtered. Only a link with a staged frame can
   have a non-empty index entry, so this costs the staged count, not the
   machine size. *)
let unindex t =
  for i = 0 to Vec.length t.staged - 1 do
    let b = Vec.get t.staged i in
    Vec.clear t.senders.(b.b_src + 1).forming.(b.b_dst)
  done

(* Rebuild the indexes after [staged] was filtered, in stage order. *)
let reindex t =
  for i = 0 to Vec.length t.staged - 1 do
    let b = Vec.get t.staged i in
    Vec.push t.senders.(b.b_src + 1).forming.(b.b_dst) b
  done

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
           { src = b.b_src; dst = b.b_dst; count = n_tasks b });
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
  unindex t;
  Vec.clear t.staged;
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

(* Fault-free flush: batches go straight into the ideal channel's
   arrival buckets, in stage order, so delivery order is deterministic. *)
let flush_ideal t =
  Vec.iter
    (fun b ->
      t.frames_sent <- t.frames_sent + 1;
      (match t.recorder with
      | None -> ()
      | Some r ->
        Dgr_obs.Recorder.emit r
          (Dgr_obs.Event.Batch
             { src = b.b_src; dst = b.b_dst; count = n_tasks b }));
      Ideal.add t.q b)
    t.staged;
  unindex t;
  Vec.clear t.staged

(* Only the main domain grows the per-PE arrays, outside the shard
   phase, so a shard never sees them move. *)
let reserve t ~pes =
  let n = Array.length t.inbox in
  if pes > n then begin
    if t.sharding then
      invalid_arg
        (Printf.sprintf "Network: PE %d is outside the %d reserved before the shard phase"
           (pes - 1) n);
    let grow a = Array.init pes (fun i -> if i < n then a.(i) else Vec.create ()) in
    t.inbox <- grow t.inbox;
    t.spent <- grow t.spent;
    Array.iter (fun s -> s.forming <- grow s.forming) t.senders;
    let ns = Array.length t.senders in
    t.senders <-
      Array.init (pes + 1) (fun i ->
          if i < ns then t.senders.(i)
          else
            {
              forming = Array.init pes (fun _ -> Vec.create ());
              opened = Vec.create ();
              tickets = Vec.create ();
              ticket_args = Lanes.create ();
              free = Vec.create ();
              tasks = 0;
            })
  end

(* Pop a recycled frame from [fl], or allocate one. The caller fills the
   scalar header; the emptied vectors keep their storage. *)
let batch_for fl =
  let n_free = Vec.length fl in
  if n_free > 0 then begin
    let b = Vec.get fl (n_free - 1) in
    Vec.truncate fl (n_free - 1);
    b
  end
  else dummy_batch ()

(* The forming frame for [arrival] among [bs], newest first, or [dummy].
   Top-level with every argument passed, so a miss allocates no
   closure. *)
let rec scan_forming bs ~arrival i dummy =
  if i < 0 then dummy
  else
    let b = Vec.get bs i in
    if b.b_arrival = arrival then b else scan_forming bs ~arrival (i - 1) dummy

let number t b =
  b.b_uid <- t.next_uid;
  t.next_uid <- t.next_uid + 1;
  Vec.push t.staged b

(* The one staging lookup: the frame forming on link (src, pe) for
   [arrival] (a link has one per pending arrival, so the scan is short),
   opened on a miss. On the main domain a new frame is numbered and
   staged at once; in the shard phase the frame and the task count wait
   in the sender's record for [seal]. Allocation-free on a hit. *)
let frame_for t ~src ~arrival ~pe =
  if Int.max src pe >= Array.length t.inbox then reserve t ~pes:(1 + Int.max src pe);
  let s = t.senders.(src + 1) in
  let bs = s.forming.(pe) in
  let b =
    if t.batching then scan_forming bs ~arrival (Vec.length bs - 1) t.sf_dummy else t.sf_dummy
  in
  let b =
    if b != t.sf_dummy then b
    else begin
      let b = batch_for s.free in
      b.b_src <- src;
      b.b_dst <- pe;
      b.b_arrival <- arrival;
      b.b_delay <- Int.max 1 (arrival - t.clock);
      b.b_pack <- false;
      Vec.push bs b;
      if t.sharding then Vec.push s.opened b else number t b;
      b
    end
  in
  if t.sharding then s.tasks <- s.tasks + 1
  else begin
    t.undelivered <- t.undelivered + 1;
    t.tasks_sent <- t.tasks_sent + 1
  end;
  b

let send_mark t ~src ~arrival ~pe v par meta =
  let b = frame_for t ~src ~arrival ~pe in
  Lanes.push3 b.b_lanes v par meta

(* Only reduction tasks are ticketed: the latency story the histograms
   tell is about demand propagation, not the mark wave. The store is
   shared, so a shard-phase send leaves its ticket to [seal]. *)
let stage_reduction t ~src ~lin ~depth ~arrival ~pe task =
  let b = frame_for t ~src ~arrival ~pe in
  let stamp =
    match t.lineage with
    | None -> -1
    | Some _ when t.sharding ->
      Vec.push t.senders.(src + 1).tickets b;
      Lanes.push3 t.senders.(src + 1).ticket_args (Vec.length b.b_reds) lin depth;
      -1
    | Some l -> Dgr_obs.Lineage.open_ticket l ~lin ~depth ~sent:t.clock ~arrival
  in
  Lanes.push3 b.b_lanes 0 0 (-1);
  Vec.push b.b_reds task;
  Vec.push b.b_stamps stamp

let send ?(src = -1) ?(lin = -1) ?(depth = 0) t ~arrival ~pe task =
  match task with
  | Task.Marking m ->
    send_mark t ~src ~arrival ~pe (Task.lane_v m) (Task.lane_par m) (Task.lane_meta m)
  | Task.Reduction _ -> stage_reduction t ~src ~lin ~depth ~arrival ~pe task

let shard_phase t = t.sharding <- true

(* Every sender in ascending PE order: its new frames numbered and
   staged in open order, its tickets opened in post order, its count
   folded — what one domain sending PE after PE would have staged. *)
let seal t =
  for i = 0 to Array.length t.senders - 1 do
    let s = t.senders.(i) in
    for k = 0 to Vec.length s.opened - 1 do
      number t (Vec.get s.opened k)
    done;
    Vec.clear s.opened;
    for k = 0 to Vec.length s.tickets - 1 do
      let b = Vec.get s.tickets k and a = s.ticket_args.Lanes.a in
      Vec.set b.b_stamps a.(3 * k)
        (Dgr_obs.Lineage.open_ticket (Option.get t.lineage) ~lin:a.((3 * k) + 1)
           ~depth:a.((3 * k) + 2) ~sent:t.clock ~arrival:b.b_arrival)
    done;
    Vec.clear s.tickets;
    s.ticket_args.Lanes.n <- 0;
    t.undelivered <- t.undelivered + s.tasks;
    t.tasks_sent <- t.tasks_sent + s.tasks;
    s.tasks <- 0
  done;
  t.sharding <- false

(* Sends [seal] has not published would escape a flush, purge or crash. *)
let check_sealed t fn =
  if t.sharding then
    Array.iteri
      (fun i s ->
        if s.tasks > 0 then
          invalid_arg
            (Printf.sprintf "Network.%s: src %d holds %d unsealed frame(s) (%d tasks)" fn
               (i - 1) (Vec.length s.opened) s.tasks))
      t.senders

(* Delivery hands each due reduction task to [push] as its batch pops —
   the engine's pools consume directly, with no intermediate list. [push]
   also receives the task's lineage stamp ([-1]: untracked), which the
   pool carries through residence. Pops emit [Deliver] per task in pop
   order and [push] emits nothing, so interleaving push with pop keeps
   the trace deterministic. Mark tasks are left in the frame for
   [take_mark_lanes]; the result says whether the frame held any. *)
let deliver_tasks t b ~now ~push n =
  let marked = ref false in
  let r = ref 0 in
  for i = 0 to n - 1 do
    let meta = lane b i 2 in
    if meta >= 0 then begin
      marked := true;
      match t.recorder with
      | None -> ()
      | Some rc ->
        Dgr_obs.Recorder.emit rc
          (Dgr_obs.Event.Deliver
             {
               kind = Task.obs_kind_of_meta meta;
               pe = b.b_dst;
               vid = Task.lanes_exec_vid (lane b i 0) (lane b i 1) meta;
               lin = -1;
             })
    end
    else begin
      let task = Vec.get b.b_reds !r in
      let stamp = Vec.get b.b_stamps !r in
      incr r;
      let lin =
        match t.lineage with
        | Some l when stamp >= 0 ->
          Dgr_obs.Lineage.deliver l stamp ~now;
          Dgr_obs.Lineage.lin_of l stamp
        | _ -> -1
      in
      (match t.recorder with
      | None -> ()
      | Some rc ->
        Dgr_obs.Recorder.emit rc
          (Dgr_obs.Event.Deliver
             { kind = Task.obs_kind task; pe = b.b_dst; vid = Task.exec_vid task; lin }));
      push b.b_dst stamp task
    end
  done;
  !marked

let deliver_batch t b ~now ~push =
  let n = n_tasks b in
  t.undelivered <- t.undelivered - n;
  match t.recorder with
  | None when Vec.length b.b_reds = 0 ->
    (* An untraced mark-only frame has nothing to hand up here: its
       marks wait for the destination's shard ([take_mark_lanes]). *)
    n > 0
  | None | Some _ -> deliver_tasks t b ~now ~push n

(* Return a delivered frame to its sender's free list, on the main
   domain. Only the idealized channel may call this: after its pop the
   batch is referenced nowhere (the flush emptied [staged] and the
   index), whereas the fault path keeps frames in [pending] until
   cumulatively acked. Each list is capped so a burst does not pin its
   high-water mark of vectors forever. *)
let free_batches_cap = 32

let recycle_batch t b =
  let fl = t.senders.(b.b_src + 1).free in
  if Vec.length fl < free_batches_cap then begin
    b.b_lanes.Lanes.n <- 0;
    Vec.clear b.b_reds;
    Vec.clear b.b_stamps;
    Vec.push fl b
  end

let reclaim_spent t =
  for pe = 0 to Array.length t.spent - 1 do
    let sp = t.spent.(pe) in
    for k = 0 to Vec.length sp - 1 do
      recycle_batch t (Vec.get sp k)
    done;
    Vec.clear sp
  done

(* Standalone credits drain in arrival order (FIFO among equals) in both
   regimes; [learn] is idempotent and order-insensitive anyway, so this
   order only matters for trace determinism. *)
let drain_credits t ~now =
  let q = t.cq in
  while t.cq_head < q.Lanes.n && q.Lanes.a.(t.cq_head) <= now do
    let k = t.cq_head in
    t.cq_head <- k + 5;
    t.on_credit ~pe:q.Lanes.a.(k + 1) ~epoch:q.Lanes.a.(k + 2) ~sent:q.Lanes.a.(k + 3)
      ~executed:q.Lanes.a.(k + 4)
  done;
  (* Move what is still pending to the front once it is the smaller
     half (the heartbeat drains every credit before it posts again, so
     this is usually the empty queue's reset). *)
  if 2 * t.cq_head >= q.Lanes.n then begin
    let left = q.Lanes.n - t.cq_head in
    Array.blit q.Lanes.a t.cq_head q.Lanes.a 0 left;
    q.Lanes.n <- left;
    t.cq_head <- 0
  end

(* A delivered frame that holds a mark is parked in its destination's
   inbox for [take_mark_lanes]; a mark-free one is settled at once. A settled
   frame of the idealized channel is recycled; a lossy one stays in
   [pending] until its cumulative ack lands. *)
let settle t b ~now ~push =
  if deliver_batch t b ~now ~push then Vec.push t.inbox.(b.b_dst) b
  else match t.faults with None -> recycle_batch t b | Some _ -> ()

let deliver_serial t ~now ~push =
  check_sealed t "deliver_serial";
  reclaim_spent t;
  t.clock <- now;
  drain_credits t ~now;
  match t.faults with
  | None ->
    flush_ideal t;
    (* Fast path: the idealized channel hands over its due buckets with
       no frame bookkeeping, and [Deliver] event records are only
       constructed when a recorder is attached. *)
    Ideal.drain_due t.q ~now (fun b -> settle t b ~now ~push)
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
   [pe]'s inbox and spent list. A parked frame is referenced nowhere
   else on the idealized channel, so it is recycled at the next tick;
   under faults it waits in [pending] for its ack. *)
let take_frames t ~pe x (f : 'a -> batch -> unit) =
  if pe < Array.length t.inbox then begin
    let ib = t.inbox.(pe) in
    for k = 0 to Vec.length ib - 1 do
      let b = Vec.get ib k in
      f x b;
      match t.faults with None -> Vec.push t.spent.(pe) b | Some _ -> ()
    done;
    Vec.clear ib
  end

let push_frame ring b = Mark_ring.push_marks ring b.b_lanes.Lanes.a b.b_lanes.Lanes.n

let take_mark_lanes t ~pe ring = take_frames t ~pe ring push_frame

let view_frame f b =
  for i = 0 to n_tasks b - 1 do
    let meta = lane b i 2 in
    if meta >= 0 then f (Task.Marking (Task.mark_of_lanes (lane b i 0) (lane b i 1) meta))
  done

let take_marks t ~pe f = take_frames t ~pe f view_frame

(* The whole tick on one domain: the serial half, then every PE's marks
   in ascending PE order. *)
let deliver_into t ~now ~push =
  deliver_serial t ~now ~push;
  for pe = 0 to Array.length t.inbox - 1 do
    take_marks t ~pe (fun task -> push pe (-1) task)
  done

(* Undelivered batches in fault-free arrival order, stage order among
   equals — deterministic regardless of hash-table or heap layout.
   Staged batches (sent this step, flushing next tick) are included:
   between ticks they are exactly as in-flight as queued ones. *)
let sorted_batches t =
  let acc = ref [] in
  (match t.faults with
  | None -> Ideal.iter (fun b -> acc := b :: !acc) t.q
  | Some _ ->
    Hashtbl.iter (fun _ p -> if not p.p_delivered then acc := p.p_batch :: !acc) t.pending);
  Vec.iter (fun b -> acc := b :: !acc) t.staged;
  List.sort
    (fun a b ->
      match compare a.b_arrival b.b_arrival with 0 -> compare a.b_uid b.b_uid | c -> c)
    !acc

let in_flight t = List.concat_map views (sorted_batches t)

let iter_in_flight_dst t f =
  let visit b =
    Vec.iter
      (fun task ->
        match task with Task.Reduction r -> f ~dst:b.b_dst r | Task.Marking _ -> ())
      b.b_reds
  in
  (match t.faults with
  | None -> Ideal.iter visit t.q
  | Some _ -> Hashtbl.iter (fun _ p -> if not p.p_delivered then visit p.p_batch) t.pending);
  Vec.iter visit t.staged

let entries t =
  List.concat_map
    (fun b -> List.map (fun task -> (b.b_arrival, task)) (views b))
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
  check_sealed t "purge";
  let per_pe = Hashtbl.create 8 in
  let removed = ref 0 in
  (* Compact the frame's lanes, reductions and stamps in lock-step,
     keeping survivors in stage order; true when the frame is emptied. *)
  let prune b =
    let before = n_tasks b in
    let j = ref 0 and r = ref 0 and rj = ref 0 in
    for i = 0 to before - 1 do
      let meta = lane b i 2 in
      let doomed =
        if meta >= 0 then
          pred (Task.Marking (Task.mark_of_lanes (lane b i 0) (lane b i 1) meta))
        else begin
          let task = Vec.get b.b_reds !r and stamp = Vec.get b.b_stamps !r in
          incr r;
          if pred task then begin
            (match t.lineage with
            | Some l when stamp >= 0 -> Dgr_obs.Lineage.drop l stamp
            | _ -> ());
            true
          end
          else begin
            Vec.set b.b_reds !rj task;
            Vec.set b.b_stamps !rj stamp;
            incr rj;
            false
          end
        end
      in
      if doomed then bump per_pe b.b_dst
      else begin
        if !j <> i then
          for k = 0 to 2 do
            Lanes.set b.b_lanes ((3 * !j) + k) (lane b i k)
          done;
        incr j
      end
    done;
    b.b_lanes.Lanes.n <- 3 * !j;
    Vec.truncate b.b_reds !rj;
    Vec.truncate b.b_stamps !rj;
    let n = before - !j in
    removed := !removed + n;
    t.undelivered <- t.undelivered - n;
    !j = 0
  in
  unindex t;
  Vec.filter_in_place (fun b -> not (prune b)) t.staged;
  reindex t;
  (match t.faults with
  | None -> Ideal.filter_in_place (fun b -> not (prune b)) t.q
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
  check_sealed t "crash_pe";
  let lost = ref 0 in
  let touches b = b.b_src = pe || b.b_dst = pe in
  let forget_batch b =
    let n = n_tasks b in
    lost := !lost + n;
    t.undelivered <- t.undelivered - n;
    match t.lineage with
    | None -> ()
    | Some l ->
      Vec.iter (fun stamp -> if stamp >= 0 then Dgr_obs.Lineage.drop l stamp) b.b_stamps
  in
  let survives b = if touches b then (forget_batch b; false) else true in
  unindex t;
  Vec.filter_in_place survives t.staged;
  reindex t;
  (match t.faults with
  | None ->
    (* ideal channel (a crash injected without a fault plane) *)
    Ideal.filter_in_place survives t.q
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
  (let q = t.cq in
   let j = ref t.cq_head in
   for k = 0 to ((q.Lanes.n - t.cq_head) / 5) - 1 do
     let i = t.cq_head + (5 * k) in
     if q.Lanes.a.(i + 1) <> pe then begin
       Array.blit q.Lanes.a i q.Lanes.a !j 5;
       j := !j + 5
     end
   done;
   q.Lanes.n <- !j);
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
