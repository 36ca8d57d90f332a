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
   timeout with exponential backoff and receiver-side dedup on the
   link's sequence give the layer above every task exactly once, in a
   deterministic order for a fixed fault seed. Each directed link keeps
   all of that state in one [link] record; queued frames and timers
   carry the record they belong to, and one drop rule ([dead_copy],
   [dead_timer]) retires them lazily when a crash has made them dead.

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
   a free list, on both channels (see [recycle_batch]): a storm step
   stages tens of frames, and re-initializing a dead record beats
   allocating record + lanes + two vectors. *)
type batch = {
  mutable b_src : int;
  mutable b_dst : int;
  mutable b_arrival : int;  (* fault-free arrival step, the stable sort key *)
  mutable b_delay : int;  (* base link delay at stage time (incl. jitter) *)
  mutable b_uid : int;  (* global stage order; ties in in_flight/entries *)
  (* The frame's tasks, in stage order, shared with every queued copy of
     the frame. A mark is three lanes [v; par; meta] (see [Task.sink]); a
     reduction is [Task.red_lanes] lanes [src; dst; head; key; pay; gen;
     stamp] (see [Task.red_sink]): [gen] the graph generation it was sent
     in ([Task.stale]), [stamp] its lineage ticket ([-1]: untracked).
     Lane 2's sign tells the two apart. *)
  b_lanes : Lanes.t;
  b_errs : string Vec.t;  (* the [V_err] strings of its reductions, by [pay] *)
  mutable b_count : int;  (* tasks *)
  mutable b_marks : int;  (* of which marks *)
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

  (* Is the oldest bucket due by [now]? Delivery pops buckets while it
     is, hands each frame on in flush order, and gives the emptied
     vector back with [spare]: a loop at the caller, so no closure. *)
  let due q ~now = q.n > 0 && q.at.(0) <= now

  let pop_bucket q =
    let v = q.frames.(0) in
    q.n <- q.n - 1;
    Array.blit q.at 1 q.at 0 q.n;
    Array.blit q.frames 1 q.frames 0 q.n;
    v

  let spare q v =
    Vec.clear v;
    Vec.push q.spare v

  let iter f q =
    for i = 0 to q.n - 1 do
      Vec.iter f q.frames.(i)
    done

  let filter_in_place keep q =
    for i = 0 to q.n - 1 do
      Vec.filter_in_place keep q.frames.(i)
    done
end

(* One directed link's reliable-delivery state, sender's and receiver's
   halves together: [links.((src + 1) * pes + dst)], made at the link's
   first send. A crash retires the record as a unit and empties its
   slot, so the link restarts at fseq 0 in a fresh record while every
   frame and timer still holding the old one dies when it pops. *)
type link = {
  l_src : int;
  l_dst : int;
  mutable next : int;  (* sender: next fseq to assign *)
  pending : pending Vec.t;  (* sender: sends not yet cumulatively acked, fseq order *)
  mutable rcv_next : int;  (* receiver: next fseq expected in order; cum = rcv_next - 1 *)
  ooo : (int, unit) Hashtbl.t;  (* receiver: received out of order, above rcv_next *)
  mutable owe : int;  (* receiver owes a cumulative ack: its base delay; -1 none *)
  mutable retired : bool;  (* severed by a crash *)
}

and pending = {
  p_link : link;
  p_batch : batch;  (* read only while not [p_delivered]: delivery recycles it *)
  p_fseq : int;
  p_delay : int;  (* the frame's base delay: ack travel and retransmit timing *)
  mutable p_kind : Dgr_obs.Event.task_kind;
  mutable p_vid : int;
      (* the head task, captured at delivery when a recorder is attached:
         a delivered-but-unacked frame's Retransmit/Dup/Drop events *)
  mutable p_attempts : int;
  mutable p_rto : int;
  mutable p_delivered : bool;  (* receiver got a copy; awaiting ack *)
  mutable p_acked : bool;  (* covered by a cumulative ack *)
}

(* A termination credit rides as three ints, [epoch] -1 for none. *)
type frame =
  | Data of { pack : int; epoch : int; sent : int; executed : int; p : pending }
      (** [pack] piggybacks a cumulative ack for the reverse data link
          (dst, src); [min_int] when none is carried. The credit is the
          sender's — see {!set_credit_of}. *)
  | Ack of { link : link; cum : int; epoch : int; sent : int; executed : int }
      (** cumulative ack for data link [link]: every fseq up to and
          including [cum] has been received; travels dst→src and carries
          dst's termination credit when one is due *)

(* The one drop rule, applied when a frame or timer pops. A frame copy is
   dead once its link was retired by a crash; a timer is dead once its
   send was acked too. A dead frame applies no pack, no credit and no
   ack. A live copy of an acked send is a duplicate: the receiver
   suppresses it and owes its ack again. A task that goes stale on the
   way rides its frame and dies as it is delivered: no holes. *)
let dead_copy p = p.p_link.retired
let dead_timer p = p.p_acked || dead_copy p

let fresh_link ~src ~dst =
  {
    l_src = src;
    l_dst = dst;
    next = 0;
    pending = Vec.create ();
    rcv_next = 0;
    ooo = Hashtbl.create 8;
    owe = -1;
    retired = false;
  }

(* A source's staging state, [senders.(src + 1)]: in the shard phase
   only its own shard writes it. *)
type sender = {
  mutable forming : batch Vec.t array;
      (* per destination: the link's forming frames, one per arrival;
         cleared and rebuilt with [staged] *)
  opened : batch Vec.t;  (* frames opened this shard phase, unnumbered *)
  tickets : batch Vec.t;  (* this shard phase's reductions, post order... *)
  ticket_args : Lanes.t;  (* ...and their [stamp lane; lin; depth], for [seal] *)
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
         delivered in [deliver_serial], dropped by [crash_pe] *)
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
  mutable links : link array;
      (* [(src + 1) * pes + dst] -> the link's record, [no_link] until its
         first send; sized by [reserve] under faults, empty otherwise *)
  no_link : link;  (* an empty slot: owes nothing, holds nothing; never written *)
  timers : pending Pqueue.t;  (* fire step -> unacked send *)
  owed_order : link Vec.t;  (* links owing an ack, in first-owed order *)
  mutable credit_epoch : int -> int;
  mutable credit_sent : int -> int;
  mutable credit_executed : int -> int;
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
    b_errs = Vec.create ();
    b_count = 0;
    b_marks = 0;
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
    links = [||];
    no_link = fresh_link ~src:min_int ~dst:min_int;
    timers = Pqueue.create ();
    owed_order = Vec.create ();
    credit_epoch = (fun _ -> -1);
    credit_sent = (fun _ -> 0);
    credit_executed = (fun _ -> 0);
    on_credit = (fun ~pe:_ ~epoch:_ ~sent:_ ~executed:_ -> ());
    next_uid = 0;
    undelivered = 0;
    clock = 0;
    frames_sent = 0;
    acks_sent = 0;
    acks_piggybacked = 0;
    tasks_sent = 0;
  }

let set_credit_of t ~epoch ~sent ~executed =
  t.credit_epoch <- epoch;
  t.credit_sent <- sent;
  t.credit_executed <- executed
let set_on_credit t f = t.on_credit <- f

let post_credit t ~arrival ~pe ~epoch ~sent ~executed =
  let q = t.cq in
  if q.Lanes.n > t.cq_head && arrival < q.Lanes.a.(q.Lanes.n - 5) then
    invalid_arg
      (Printf.sprintf "Network.post_credit: arrival %d before the queued %d" arrival
         q.Lanes.a.(q.Lanes.n - 5));
  Lanes.push3 q arrival pe epoch;
  Lanes.push2 q sent executed

let apply_credit t ~pe ~epoch ~sent ~executed =
  if epoch >= 0 then t.on_credit ~pe ~epoch ~sent ~executed

let frames_sent t = t.frames_sent
let acks_sent t = t.acks_sent
let acks_piggybacked t = t.acks_piggybacked
let tasks_sent t = t.tasks_sent
let unacked t = Array.fold_left (fun n l -> n + Vec.length l.pending) 0 t.links

(* The width of the task at lane [i]: a mark's meta is never negative, a
   reduction's head always is. *)
let width a i = if Array.unsafe_get a (i + 2) >= 0 then 3 else Task.red_lanes

(* The [V_err] string of the reduction at lane [i], or "". *)
let err_at b a i =
  if Task.head_vtag a.(i + 2) = Task.v_err then Vec.get b.b_errs a.(i + 4) else ""

(* [f a i] for each reduction of the frame, its row at lane [i] of [a],
   in stage order. *)
let iter_reds b f =
  let a = b.b_lanes.Lanes.a and n = b.b_lanes.Lanes.n in
  let i = ref 0 in
  while !i < n do
    let w = width a !i in
    if w <> 3 then f a !i;
    i := !i + w
  done

(* The frame's tasks in stage order as views, each with the generation it
   was sent in ([Task.no_gen] for a mark): the in-flight listings' form. *)
let iter_frame b f =
  let a = b.b_lanes.Lanes.a and n = b.b_lanes.Lanes.n in
  let i = ref 0 in
  while !i < n do
    let k = !i in
    let w = width a k in
    if w = 3 then f Task.no_gen (Task.Marking (Task.mark_of_lanes a.(k) a.(k + 1) a.(k + 2)))
    else f a.(k + 5) (Task.Reduction (Task.reduction_of_row a k (err_at b a k)));
    i := k + w
  done

(* Drop/Dup/Retransmit events describe a whole frame via its head task —
   batches are never empty in the channel, so the head exists; once
   delivered, the pair captured at delivery. Built only when a recorder
   is attached. *)
let batch_head b =
  let a = b.b_lanes.Lanes.a in
  let meta = Lanes.get b.b_lanes 2 in
  if meta >= 0 then (Task.obs_kind_of_meta meta, Task.lanes_exec_vid a.(0) a.(1) meta)
  else (Task.obs_kind_of_head meta, a.(1))

let emit_head t p what =
  match t.recorder with
  | None -> ()
  | Some r ->
    let kind, vid = if p.p_delivered then (p.p_kind, p.p_vid) else batch_head p.p_batch in
    let pe = p.p_link.l_dst in
    Dgr_obs.Recorder.emit r
      (match what with
      | `Drop -> Dgr_obs.Event.Drop { kind; pe; vid }
      | `Dup -> Dgr_obs.Event.Dup { kind; pe; vid }
      | `Retransmit -> Dgr_obs.Event.Retransmit { kind; pe; vid; attempt = p.p_attempts })

let rto_cap = 1024

(* The sequence space is per-link and never wraps: links live as long as
   the machine, so at [seq_guard] sends on one link we fail loudly
   rather than let cumulative acks silently go backwards. *)
let seq_guard = max_int / 2

(* The record in link (src, dst)'s slot, [no_link] before its first
   send: reads only. Both PEs must be reserved. *)
let slot t ~src ~dst = t.links.(((src + 1) * Array.length t.inbox) + dst)

(* The link's record, made on its first send. *)
let link t ~src ~dst =
  let l = slot t ~src ~dst in
  if l != t.no_link then l
  else begin
    let l = fresh_link ~src ~dst in
    t.links.(((src + 1) * Array.length t.inbox) + dst) <- l;
    l
  end

(* Record fseq as received on the link, advancing the contiguous
   watermark through any out-of-order backlog it unlocks. *)
let mark_received l fseq =
  if fseq >= l.rcv_next then
    if fseq = l.rcv_next then begin
      l.rcv_next <- l.rcv_next + 1;
      while Hashtbl.mem l.ooo l.rcv_next do
        Hashtbl.remove l.ooo l.rcv_next;
        l.rcv_next <- l.rcv_next + 1
      done
    end
    else Hashtbl.replace l.ooo fseq ()

let already_received l fseq = fseq < l.rcv_next || Hashtbl.mem l.ooo fseq

(* A cumulative ack for the link: forget every pending send up to [cum],
   a prefix of [pending]. Idempotent — older acks are no-ops. *)
let apply_cum l cum =
  let q = l.pending in
  let n = Vec.length q in
  let k = ref 0 in
  while !k < n && (Vec.get q !k).p_fseq <= cum do
    (Vec.get q !k).p_acked <- true;
    incr k
  done;
  let k = !k in
  if k > 0 then begin
    for i = k to n - 1 do
      Vec.set q (i - k) (Vec.get q i)
    done;
    Vec.truncate q (n - k)
  end

(* The receiver owes the sender a cumulative ack: remember the link (and
   the triggering frame's base delay, for the ack's travel time). Every
   owed link is settled at the next flush — piggybacked or standalone —
   so [owed_order] never carries across more than one step. *)
let owe_ack t l ~delay =
  if l.owe < 0 then Vec.push t.owed_order l;
  l.owe <- delay

(* One physical transmission of a data frame through the fault plane:
   roll duplicate (two independent copies on a hit), then every copy
   rolls drop and extra delay. [arrival] is the fault-free arrival step;
   [base] the link delay that scales the fault plane's extra delay. *)
let transmit_data t f ~arrival ~base ~pack p =
  let pe = p.p_link.l_src in
  let epoch = t.credit_epoch pe and sent = t.credit_sent pe and executed = t.credit_executed pe in
  let copies =
    if Faults.duplicates_frame f then begin
      emit_head t p `Dup;
      2
    end
    else 1
  in
  for _ = 1 to copies do
    if Faults.drops_frame f then emit_head t p `Drop
    else
      Pqueue.add t.fq
        (arrival + Faults.extra_delay f ~latency:base)
        (Data { pack; epoch; sent; executed; p })
  done

(* Acks roll drop and delay only — duplicating an ack is a no-op, and
   keeping it out of the stream keeps the dup counter equal to the
   number of Dup events. The ack carries its sender's (the link's
   receiver's) credit. *)
let transmit_ack t f ~arrival ~base l cum =
  let pe = l.l_dst in
  let epoch = t.credit_epoch pe and sent = t.credit_sent pe and executed = t.credit_executed pe in
  if not (Faults.drops_frame f) then
    Pqueue.add t.fq
      (arrival + Faults.extra_delay f ~latency:base)
      (Ack { link = l; cum; epoch; sent; executed })

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

(* A flushed frame is counted and traced; the event records are built
   only when a recorder is attached. *)
let emit_batch t b =
  t.frames_sent <- t.frames_sent + 1;
  match t.recorder with
  | None -> ()
  | Some r ->
    Dgr_obs.Recorder.emit r
      (Dgr_obs.Event.Batch { src = b.b_src; dst = b.b_dst; count = b.b_count })

let emit_cum_ack t ~src ~dst ~upto ~piggyback =
  match t.recorder with
  | None -> ()
  | Some r -> Dgr_obs.Recorder.emit r (Dgr_obs.Event.Cum_ack { src; dst; upto; piggyback })

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
    if b.b_src >= 0 then begin
      let r = slot t ~src:b.b_dst ~dst:b.b_src in
      if r.owe >= 0 then begin
        r.owe <- -1;
        b.b_pack <- true
      end
    end
  done;
  for i = 0 to Vec.length t.staged - 1 do
    let b = Vec.get t.staged i in
    let l = link t ~src:b.b_src ~dst:b.b_dst in
    if l.next >= seq_guard then
      invalid_arg "Network.send: per-link sequence space exhausted";
    let p =
      { p_link = l; p_batch = b; p_fseq = l.next; p_delay = b.b_delay;
        p_kind = Dgr_obs.Event.Request; p_vid = -1; p_attempts = 1;
        p_rto = (2 * b.b_delay) + 2; p_delivered = false; p_acked = false }
    in
    l.next <- l.next + 1;
    Vec.push l.pending p;
    Pqueue.add t.timers (now + p.p_rto) p;
    emit_batch t b;
    let pack =
      if b.b_pack then begin
        let cum = (slot t ~src:b.b_dst ~dst:b.b_src).rcv_next - 1 in
        t.acks_piggybacked <- t.acks_piggybacked + 1;
        emit_cum_ack t ~src:b.b_dst ~dst:b.b_src ~upto:cum ~piggyback:true;
        cum
      end
      else min_int
    in
    transmit_data t f ~arrival:b.b_arrival ~base:b.b_delay ~pack p
  done;
  unindex t;
  Vec.clear t.staged;
  (* Standalone acks for links no reverse data frame covered. *)
  for i = 0 to Vec.length t.owed_order - 1 do
    let l = Vec.get t.owed_order i in
    if l.owe >= 0 && not l.retired then begin
      let delay = l.owe and cum = l.rcv_next - 1 in
      l.owe <- -1;
      t.acks_sent <- t.acks_sent + 1;
      emit_cum_ack t ~src:l.l_src ~dst:l.l_dst ~upto:cum ~piggyback:false;
      transmit_ack t f ~arrival:(now + delay) ~base:delay l cum
    end
  done;
  Vec.clear t.owed_order

(* Fault-free flush: batches go straight into the ideal channel's
   arrival buckets, in stage order, so delivery order is deterministic. *)
let flush_ideal t =
  for i = 0 to Vec.length t.staged - 1 do
    let b = Vec.get t.staged i in
    emit_batch t b;
    Ideal.add t.q b
  done;
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
    if Option.is_some t.faults then begin
      let old = t.links in
      t.links <- Array.make ((pes + 1) * pes) t.no_link;
      Array.iter
        (fun l -> if l != t.no_link then t.links.(((l.l_src + 1) * pes) + l.l_dst) <- l)
        old
    end;
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
  b.b_count <- b.b_count + 1;
  b

let send_mark t ~src ~arrival ~pe v par meta =
  let b = frame_for t ~src ~arrival ~pe in
  b.b_marks <- b.b_marks + 1;
  Lanes.push3 b.b_lanes v par meta

(* Only reduction tasks are ticketed: the latency story the histograms
   tell is about demand propagation, not the mark wave. The store is
   shared, so a shard-phase send leaves its ticket to [seal]. *)
let stage_reduction t ~src ~lin ~depth ~gen ~arrival ~pe head rsrc rdst key pay err =
  let b = frame_for t ~src ~arrival ~pe in
  let l = b.b_lanes in
  let stamp =
    match t.lineage with
    | None -> -1
    | Some _ when t.sharding ->
      Vec.push t.senders.(src + 1).tickets b;
      Lanes.push3 t.senders.(src + 1).ticket_args (l.Lanes.n + 6) lin depth;
      -1
    | Some lg -> Dgr_obs.Lineage.open_ticket lg ~lin ~depth ~sent:t.clock ~arrival
  in
  let pay =
    if Task.head_vtag head = Task.v_err then begin
      Vec.push b.b_errs err;
      Vec.length b.b_errs - 1
    end
    else pay
  in
  Lanes.reserve l Task.red_lanes;
  let a = l.Lanes.a and n = l.Lanes.n in
  Array.unsafe_set a n rsrc;
  Array.unsafe_set a (n + 1) rdst;
  Array.unsafe_set a (n + 2) head;
  Array.unsafe_set a (n + 3) key;
  Array.unsafe_set a (n + 4) pay;
  Array.unsafe_set a (n + 5) gen;
  Array.unsafe_set a (n + 6) stamp;
  l.Lanes.n <- n + Task.red_lanes

let send ?(src = -1) ?(lin = -1) ?(depth = 0) ?(gen = Task.no_gen) t ~arrival ~pe task =
  match task with
  | Task.Marking m ->
    send_mark t ~src ~arrival ~pe (Task.lane_v m) (Task.lane_par m) (Task.lane_meta m)
  | Task.Reduction r ->
    stage_reduction t ~src ~lin ~depth ~gen ~arrival ~pe (Task.red_head r) (Task.red_src r)
      (Task.red_dst r) (Task.red_key r) (Task.red_pay r) (Task.red_err r)

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
      b.b_lanes.Lanes.a.(a.(3 * k)) <-
        Dgr_obs.Lineage.open_ticket (Option.get t.lineage) ~lin:a.((3 * k) + 1)
          ~depth:a.((3 * k) + 2) ~sent:t.clock ~arrival:b.b_arrival
    done;
    Vec.clear s.tickets;
    s.ticket_args.Lanes.n <- 0;
    t.undelivered <- t.undelivered + s.tasks;
    t.tasks_sent <- t.tasks_sent + s.tasks;
    s.tasks <- 0
  done;
  t.sharding <- false

(* Sends [seal] has not published would escape a flush or crash. *)
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
   the engine's pools consume directly, with no intermediate list: [push
   pe a i err] reads the row at lane [i] of [a] (see [Task.red_lanes]),
   its lineage stamp and generation included, and [err] is its [V_err]
   string. Pops emit [Deliver] per task in pop order, and whatever [push]
   emits follows its task's, so the trace stays deterministic. Mark tasks
   are left in the frame for [take_mark_lanes]. *)
let deliver_tasks t b ~now ~push =
  let a = b.b_lanes.Lanes.a and n = b.b_lanes.Lanes.n in
  let i = ref 0 in
  while !i < n do
    let k = !i in
    let meta = a.(k + 2) in
    if meta >= 0 then begin
      (match t.recorder with
      | None -> ()
      | Some rc ->
        Dgr_obs.Recorder.emit rc
          (Dgr_obs.Event.Deliver
             {
               kind = Task.obs_kind_of_meta meta;
               pe = b.b_dst;
               vid = Task.lanes_exec_vid a.(k) a.(k + 1) meta;
               lin = -1;
             }));
      i := k + 3
    end
    else begin
      let stamp = a.(k + 6) in
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
             { kind = Task.obs_kind_of_head meta; pe = b.b_dst; vid = a.(k + 1); lin }));
      push b.b_dst a k (err_at b a k);
      i := k + Task.red_lanes
    end
  done

(* Whether the frame holds a mark, to be parked for its destination. An
   untraced mark-only frame has nothing to hand up here: its marks wait
   for the destination's shard ([take_mark_lanes]). *)
let deliver_batch t b ~now ~push =
  t.undelivered <- t.undelivered - b.b_count;
  (match t.recorder with
  | None when b.b_count = b.b_marks -> ()
  | None | Some _ -> deliver_tasks t b ~now ~push);
  b.b_marks > 0

(* Return a delivered frame to its sender's free list, on the main
   domain. After delivery the batch is referenced nowhere that reads it:
   the flush emptied [staged] and the index, and a lossy send's
   [pending] record reads its own [p_delay] and captured head once
   [p_delivered] is set, never [p_batch]. Each list is capped so a burst
   does not pin its high-water mark of vectors forever. *)
let free_batches_cap = 32

let recycle_batch t b =
  let fl = t.senders.(b.b_src + 1).free in
  if Vec.length fl < free_batches_cap then begin
    b.b_lanes.Lanes.n <- 0;
    Vec.clear b.b_errs;
    b.b_count <- 0;
    b.b_marks <- 0;
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
   inbox for [take_mark_lanes]; a mark-free one is recycled at once, on
   either channel. *)
let settle t b ~now ~push =
  if deliver_batch t b ~now ~push then Vec.push t.inbox.(b.b_dst) b else recycle_batch t b

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
    while Ideal.due t.q ~now do
      let v = Ideal.pop_bucket t.q in
      for k = 0 to Vec.length v - 1 do
        settle t (Vec.get v k) ~now ~push
      done;
      Ideal.spare t.q v
    done
  | Some f ->
    flush t f ~now;
    while Pqueue.min_prio t.fq ~default:max_int <= now do
      match Pqueue.pop_min t.fq with
      | Data d when dead_copy d.p -> ()
      | Data { pack; epoch; sent; executed; p } ->
        let l = p.p_link in
        (* a piggybacked cum ack settles the reverse data link *)
        if pack > min_int then apply_cum (slot t ~src:l.l_dst ~dst:l.l_src) pack;
        (* credits apply even on duplicate frames — idempotent *)
        apply_credit t ~pe:l.l_src ~epoch ~sent ~executed;
        if already_received l p.p_fseq then
          (* redelivery of a frame already seen: suppress — this is
             the exactly-once edge *)
          f.Faults.dup_suppressed <- f.Faults.dup_suppressed + 1
        else begin
          let b = p.p_batch in
          mark_received l p.p_fseq;
          if Option.is_some t.recorder then begin
            let kind, vid = batch_head b in
            p.p_kind <- kind;
            p.p_vid <- vid
          end;
          p.p_delivered <- true;
          settle t b ~now ~push
        end;
        (* always owe an ack, even for duplicates: the previous
           cumulative ack may have been lost *)
        owe_ack t l ~delay:p.p_delay
      | Ack a when a.link.retired -> ()
      | Ack { link = l; cum; epoch; sent; executed } ->
        apply_cum l cum;
        apply_credit t ~pe:l.l_dst ~epoch ~sent ~executed
    done;
    while Pqueue.min_prio t.timers ~default:max_int <= now do
      let p = Pqueue.pop_min t.timers in
      if not (dead_timer p) then begin
        p.p_attempts <- p.p_attempts + 1;
        f.Faults.retransmits <- f.Faults.retransmits + 1;
        emit_head t p `Retransmit;
        (* the whole batch retransmits as a unit, without a piggybacked
           ack (the ack path has its own redundancy: every receipt
           re-owes the watermark) *)
        transmit_data t f ~arrival:(now + p.p_delay) ~base:p.p_delay ~pack:min_int p;
        p.p_rto <- Int.min (p.p_rto * 2) rto_cap;
        Pqueue.add t.timers (now + p.p_rto) p
      end
    done

(* Runs on [pe]'s shard, possibly on a worker domain: it touches only
   [pe]'s inbox and spent list. A parked frame is read nowhere else once
   its marks are taken, so it is recycled at the next tick, on either
   channel. *)
let take_frames t ~pe x (f : 'a -> batch -> unit) =
  if pe < Array.length t.inbox then begin
    let ib = t.inbox.(pe) in
    for k = 0 to Vec.length ib - 1 do
      let b = Vec.get ib k in
      f x b;
      Vec.push t.spent.(pe) b
    done;
    Vec.clear ib
  end

let push_frame ring b = Mark_ring.push_marks ring b.b_lanes.Lanes.a b.b_lanes.Lanes.n

let take_mark_lanes t ~pe ring = take_frames t ~pe ring push_frame

let view_frame f b =
  let a = b.b_lanes.Lanes.a and n = b.b_lanes.Lanes.n in
  let i = ref 0 in
  while !i < n do
    let k = !i in
    let w = width a k in
    if w = 3 then f (Task.Marking (Task.mark_of_lanes a.(k) a.(k + 1) a.(k + 2)));
    i := k + w
  done

(* The whole tick on one domain: the serial half, then every PE's marks
   in ascending PE order, all as views. *)
let deliver_into t ~now ~push =
  deliver_serial t ~now ~push:(fun pe a i err ->
      push pe a.(i + 6) (Task.Reduction (Task.reduction_of_row a i err)));
  for pe = 0 to Array.length t.inbox - 1 do
    take_frames t ~pe (fun task -> push pe (-1) task) view_frame
  done

(* Every undelivered batch: the channel's (the ideal channel's by
   arrival bucket, the lossy channel's link by link in fseq order), then
   the staged ones (sent this step, flushing next tick: between ticks
   they are exactly as in-flight as queued ones). A fixed order, free of
   hash-table and heap layout. *)
let iter_undelivered t f =
  (match t.faults with
  | None -> Ideal.iter f t.q
  | Some _ ->
    Array.iter (fun l -> Vec.iter (fun p -> if not p.p_delivered then f p.p_batch) l.pending) t.links);
  Vec.iter f t.staged

(* Undelivered batches in fault-free arrival order, stage order among
   equals. *)
let sorted_batches t =
  let acc = ref [] in
  iter_undelivered t (fun b -> acc := b :: !acc);
  List.sort
    (fun a b ->
      match compare a.b_arrival b.b_arrival with 0 -> compare a.b_uid b.b_uid | c -> c)
    !acc

let iter_in_flight t f = List.iter (fun b -> iter_frame b f) (sorted_batches t)

let in_flight t =
  let acc = ref [] in
  iter_in_flight t (fun _ task -> acc := task :: !acc);
  List.rev !acc

let iter_in_flight_rows t f =
  iter_undelivered t (fun b -> iter_reds b (fun a i -> f b.b_dst a.(i + 5) a.(i) a.(i + 1)))

let entries t =
  let acc = ref [] in
  List.iter (fun b -> iter_frame b (fun _ task -> acc := (b.b_arrival, task) :: !acc))
    (sorted_batches t);
  List.rev !acc

let size t = t.undelivered

(* Test hook: fast-forward a link's sender sequence to exercise the
   wraparound guard without billions of sends. *)
let set_link_seq t ~src ~dst n =
  if Int.max src dst >= Array.length t.inbox then reserve t ~pes:(1 + Int.max src dst);
  (link t ~src ~dst).next <- n

(* A PE crash severs every link touching [pe], both directions, all at
   once: its row and column of link records are retired and their slots
   emptied, so traffic after recovery restarts at fseq 0 in fresh
   records. Queued frame copies, acks and timers of a retired link die
   when they pop, so nothing pre-crash can act on the fresh record.
   Staged batches (not yet on a link) are discarded here. Returns the
   number of undelivered tasks lost; their lineage tickets are dropped.
   Delivered-but-unacked batches lose only their ack state (the
   receiver already has the tasks). *)
let crash_pe t ~pe =
  check_sealed t "crash_pe";
  let lost = ref 0 in
  let touches b = b.b_src = pe || b.b_dst = pe in
  let forget_batch b =
    lost := !lost + b.b_count;
    t.undelivered <- t.undelivered - b.b_count;
    match t.lineage with
    | None -> ()
    | Some l ->
      iter_reds b (fun a i -> if a.(i + 6) >= 0 then Dgr_obs.Lineage.drop l a.(i + 6))
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
    let pes = Array.length t.inbox in
    let retire i =
      let l = t.links.(i) in
      if l != t.no_link then begin
        l.retired <- true;
        Vec.iter (fun p -> if not p.p_delivered then forget_batch p.p_batch) l.pending;
        t.links.(i) <- t.no_link
      end
    in
    if pe < pes then begin
      for dst = 0 to pes - 1 do
        retire (((pe + 1) * pes) + dst)
      done;
      for src = -1 to pes - 1 do
        retire (((src + 1) * pes) + pe)
      done
    end);
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
  !lost
