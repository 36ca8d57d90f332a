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

   With a fault plane, batches ride in data frames over an at-most-once
   channel (Faults may drop, duplicate or delay any physical
   transmission; a dropped batch is retransmitted as a unit).
   Reliability is re-earned end to end with per-(src, dst) sequence
   numbers and *cumulative* acks: the receiver tracks the highest
   contiguous sequence per link and acks that watermark — piggybacked on
   a reverse-direction data frame when one is already going out this
   step, as a standalone ack frame otherwise — so the reliable layer
   no longer generates one ack frame per data frame. Retransmission on
   timeout with exponential backoff and receiver-side dedup on the
   link's sequence give the layer above every task exactly once, in a
   deterministic order for a fixed fault seed. Each directed link keeps
   all of that state in one [link] record, as int lanes: its unacked
   sends in a ring of rows, its out-of-order receipts in a ring of
   flags. A queued frame copy or timer is its link record in a heap,
   with the fseq (or an ack's cum) in the heap's tag, and a copy's
   credit, piggybacked ack and delay in a row of the channel's frame
   table; one drop rule ([dead_copy], [dead_timer]) retires them lazily
   when a crash has made them dead. So a transmission, a retransmission
   and an ack allocate nothing once the rings and tables have grown.

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

  let push l x =
    reserve l 1;
    Array.unsafe_set l.a l.n x;
    l.n <- l.n + 1

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
   allocating record + lanes + error table. *)
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
  mutable b_errs : string array;  (* the [V_err] strings of its reductions, by [pay]... *)
  mutable b_nerrs : int;  (* ...of which the first [b_nerrs] are this frame's *)
  mutable b_count : int;  (* tasks *)
  mutable b_marks : int;  (* of which marks *)
  mutable b_pack : bool;  (* claimed to carry the reverse link's cum ack *)
}

(* A growable stack of frames: the per-frame path's only container. Local
   to this module, like [Lanes], so a push or read is a direct array
   access on a known pointer type, not a call through a polymorphic
   vector. [clear] keeps the slots' references, as a vector does: a
   recycled frame is pinned by at most the stacks it passed through. *)
module Frames = struct
  type t = { mutable a : batch array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push s b =
    let n = s.n in
    if n = Array.length s.a then begin
      let a = Array.make (Int.max 8 (2 * n)) b in
      Array.blit s.a 0 a 0 n;
      s.a <- a
    end;
    Array.unsafe_set s.a n b;
    s.n <- n + 1

  (* The top frame, removed; [s] must not be empty. *)
  let pop s =
    let n = s.n - 1 in
    s.n <- n;
    Array.unsafe_get s.a n

  let clear s = s.n <- 0

  let iter f s =
    for i = 0 to s.n - 1 do
      f (Array.unsafe_get s.a i)
    done

  let filter_in_place keep s =
    let j = ref 0 in
    for i = 0 to s.n - 1 do
      let b = Array.unsafe_get s.a i in
      if keep b then begin
        Array.unsafe_set s.a !j b;
        incr j
      end
    done;
    s.n <- !j
end

(* The idealized channel: flushed frames bucketed by fault-free arrival
   step, buckets in ascending arrival order and each bucket in flush
   order — exactly the order an arrival-keyed heap with FIFO ties pops,
   without a heap sift per frame (on a storm that sift is a visible part
   of the serial delivery pass, which runs once per step). Distinct
   pending arrivals are few (at most the largest link delay), so [add]
   finds its bucket by a short scan from the newest end. *)
module Ideal = struct
  type t = {
    mutable at : int array;  (* bucket arrival steps, ascending *)
    mutable frames : Frames.t array;
        (* parallel to [at] below [n]; from [n] on, spare buckets for
           reuse, emptied as they are reopened *)
    mutable n : int;
  }

  let create () = { at = [||]; frames = [||]; n = 0 }

  (* Open an empty bucket for [arrival] at position [i]. *)
  let insert q i arrival =
    let n = q.n in
    if n = Array.length q.at then begin
      let cap = Int.max 8 (2 * n) in
      let at = Array.make cap 0
      and frames = Array.init cap (fun k -> if k < n then q.frames.(k) else Frames.create ()) in
      Array.blit q.at 0 at 0 n;
      q.at <- at;
      q.frames <- frames
    end;
    let v = q.frames.(n) in
    Frames.clear v;
    Array.blit q.at i q.at (i + 1) (n - i);
    Array.blit q.frames i q.frames (i + 1) (n - i);
    q.at.(i) <- arrival;
    q.frames.(i) <- v;
    q.n <- n + 1

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
    Frames.push q.frames.(!i) b

  (* Is the oldest bucket due by [now]? Delivery pops buckets while it
     is and hands each frame on in flush order: a loop at the caller, so
     no closure. *)
  let due q ~now = q.n > 0 && q.at.(0) <= now

  (* The oldest bucket, which becomes the first spare: it stays readable
     until the next [add] opens a bucket. *)
  let pop_bucket q =
    let v = q.frames.(0) in
    q.n <- q.n - 1;
    Array.blit q.at 1 q.at 0 q.n;
    Array.blit q.frames 1 q.frames 0 q.n;
    q.frames.(q.n) <- v;
    v

  let iter f q =
    for i = 0 to q.n - 1 do
      Frames.iter f q.frames.(i)
    done

  let filter_in_place keep q =
    for i = 0 to q.n - 1 do
      Frames.filter_in_place keep q.frames.(i)
    done
end

let dummy_batch () =
  {
    b_src = min_int;
    b_dst = min_int;
    b_arrival = min_int;
    b_delay = 0;
    b_uid = -1;
    b_lanes = Lanes.create ();
    b_errs = [||];
    b_nerrs = 0;
    b_count = 0;
    b_marks = 0;
    b_pack = false;
  }

(* "No frame": the staging lookup's miss, and the filler of a link's
   frame ring (an unacked send's slot once its frame was delivered and
   recycled, and every free slot). Never written. *)
let no_batch = dummy_batch ()

(* One directed link's reliable-delivery state, sender's and receiver's
   halves together: [links.((src + 1) * pes + dst)], made at the link's
   first send and kept for the machine's life. A crash resets the record
   in place and bumps its incarnation [inc], so the link restarts at
   fseq 0 while every queued frame copy and timer, which carry the
   incarnation they were queued under, dies when it pops.

   The sender's unacked sends are the fseqs in (acked, next): a ring of
   int rows, [row_w] lanes at [(fseq land (cap - 1)) * row_w] in [rows],
   beside the frame ring [frames] (its length is [cap], a power of two
   or 0). A row is [delay] (the frame's base delay: ack travel and
   retransmit timing), [attempts], [rto], [delivered] (the receiver got a
   copy; awaiting ack), and the head task's [head] lane and [vid],
   captured at delivery for a delivered-but-unacked send's trace events:
   delivery recycles the frame, so its slot in [frames] then holds
   [no_batch]. *)
type link = {
  l_src : int;
  l_dst : int;
  mutable inc : int;  (* incarnation: crashes that severed the link *)
  mutable next : int;  (* sender: next fseq to assign *)
  mutable acked : int;  (* sender: every fseq up to this one is acked *)
  mutable rows : int array;  (* sender: the unacked rows' ring *)
  mutable frames : batch array;  (* sender: the unacked frames' ring *)
  mutable rcv_next : int;  (* receiver: next fseq expected in order; cum = rcv_next - 1 *)
  mutable ooo : int array;
      (* receiver: fseqs received out of order, above [rcv_next]: a flag
         at [fseq land (len - 1)] for each, [len] a power of two or 0 *)
  mutable owe : int;  (* receiver owes a cumulative ack: its base delay; -1 none *)
}

let row_w = 6
let r_delay = 0
let r_attempts = 1
let r_rto = 2
let r_delivered = 3
let r_head = 4
let r_vid = 5

(* A queued frame copy's row in the lossy channel's frame table: [pack;
   epoch; sent; executed; delay; inc] (see [frame_slot]). *)
let ft_w = 6

let fresh_link ~src ~dst =
  {
    l_src = src;
    l_dst = dst;
    inc = 0;
    next = 0;
    acked = -1;
    rows = [||];
    frames = [||];
    rcv_next = 0;
    ooo = [||];
    owe = -1;
  }

(* A source's staging state, [senders.(src + 1)]: in the shard phase
   only its own shard writes it. *)
type sender = {
  mutable forming : Frames.t array;
      (* per destination: the link's forming frames, one per arrival;
         cleared and rebuilt with [staged] *)
  opened : Frames.t;  (* frames opened this shard phase, unnumbered *)
  tickets : Frames.t;  (* this shard phase's reductions, post order... *)
  ticket_args : Lanes.t;  (* ...and their [stamp lane; lin; depth], for [seal] *)
  free : Frames.t;  (* delivered frames of this sender, for reuse *)
  mutable tasks : int;  (* tasks staged this shard phase *)
}

type t = {
  q : Ideal.t;  (* ideal channel (faults = None) *)
  fq : link Pqueue.t;
      (* lossy channel, arrival-keyed: each queued copy's link, its fseq
         (a data frame) or cum (an ack) as the tag, and its [ft] slot as
         the aux, [lnot slot] for an ack *)
  ft : Lanes.t;  (* the queued copies' rows, [ft_w] lanes each *)
  ft_free : Lanes.t;  (* [ft] slots whose copy popped, for reuse *)
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
         opened outside the shard phase (by the send, or by [seal], in
         PE order), marked delivered in [deliver_serial], dropped by
         [crash_pe] *)
  faults : Faults.t option;
  batching : bool;  (* false: one task per frame *)
  staged : Frames.t;  (* numbered batches forming since the last flush *)
  mutable senders : sender array;  (* [src + 1] -> sender; sized by [reserve] *)
  mutable sharding : bool;  (* between [shard_phase] and [seal] *)
  mutable sent_in_phase : Bitset.t;
      (* [src + 1] of each sender with a send since [shard_phase]: the
         senders [seal] visits, in ascending order *)
  mutable inbox : Frames.t array;
      (* delivered frames parked per destination until the destination's
         shard takes their marks (see [take_mark_lanes]) *)
  mutable on_park : int -> unit;  (* told [pe] when its inbox stops being empty *)
  mutable links : link array;
      (* [(src + 1) * pes + dst] -> the link's record, [no_link] until its
         first send; sized by [reserve] under faults, empty otherwise *)
  no_link : link;  (* an empty slot: owes nothing, holds nothing; never written *)
  timers : link Pqueue.t;  (* fire step -> unacked send: its link, fseq tag, inc aux *)
  mutable owed : link array;  (* links owing an ack, in first-owed order... *)
  mutable n_owed : int;  (* ...the first [n_owed] of them *)
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

let create ?recorder ?lineage ?faults ?(batch = true) () =
  {
    q = Ideal.create ();
    fq = Pqueue.create ();
    ft = Lanes.create ();
    ft_free = Lanes.create ();
    cq = Lanes.create ();
    cq_head = 0;
    recorder;
    lineage;
    faults;
    batching = batch;
    staged = Frames.create ();
    senders = [||];
    sharding = false;
    sent_in_phase = Bitset.create 0;
    inbox = [||];
    on_park = ignore;
    links = [||];
    no_link = fresh_link ~src:min_int ~dst:min_int;
    timers = Pqueue.create ();
    owed = [||];
    n_owed = 0;
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
let set_on_park t f = t.on_park <- f

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
let unacked t = Array.fold_left (fun n l -> n + (l.next - 1 - l.acked)) 0 t.links

(* The width of the task at lane [i]: a mark's meta is never negative, a
   reduction's head always is. *)
let width a i = if Array.unsafe_get a (i + 2) >= 0 then 3 else Task.red_lanes

(* The [V_err] string of the reduction at lane [i], or "". *)
let err_at b a i =
  if Task.head_vtag a.(i + 2) = Task.v_err then b.b_errs.(a.(i + 4)) else ""

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
   delivered, by the head's lane 2 and vid captured at delivery. *)
let head_lane b = Lanes.get b.b_lanes 2

let head_vid b =
  let a = b.b_lanes.Lanes.a and h = head_lane b in
  if h >= 0 then Task.lanes_exec_vid a.(0) a.(1) h else a.(1)

let head_kind h = if h >= 0 then Task.obs_kind_of_meta h else Task.obs_kind_of_head h

(* Unacked send [fseq]'s slot in its link's frame ring, and its row. *)
let ring_at l fseq = fseq land (Array.length l.frames - 1)
let row l fseq = ring_at l fseq * row_w

let emit_head t l fseq what =
  match t.recorder with
  | None -> ()
  | Some r ->
    let i = row l fseq and rows = l.rows in
    let b = l.frames.(ring_at l fseq) in
    let delivered = rows.(i + r_delivered) <> 0 in
    let kind = head_kind (if delivered then rows.(i + r_head) else head_lane b) in
    let vid = if delivered then rows.(i + r_vid) else head_vid b in
    let pe = l.l_dst in
    Dgr_obs.Recorder.emit r
      (match what with
      | `Drop -> Dgr_obs.Event.Drop { kind; pe; vid }
      | `Dup -> Dgr_obs.Event.Dup { kind; pe; vid }
      | `Retransmit ->
        Dgr_obs.Event.Retransmit { kind; pe; vid; attempt = rows.(i + r_attempts) })

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

(* Room in the out-of-order flags for [fseq]: a ring at least twice as
   large, each flag re-seated at its fseq's slot. *)
let grow_ooo l fseq =
  let o = l.ooo in
  let len = ref (Int.max 8 (2 * Array.length o)) in
  while fseq - l.rcv_next >= !len do
    len := 2 * !len
  done;
  let o' = Array.make !len 0 in
  for f = l.rcv_next to l.rcv_next + Array.length o - 1 do
    if o.(f land (Array.length o - 1)) <> 0 then o'.(f land (!len - 1)) <- 1
  done;
  l.ooo <- o'

(* Record fseq as received on the link, advancing the contiguous
   watermark through any out-of-order backlog it unlocks. A flag is set
   only for an fseq less than a ring's length above [rcv_next], and
   cleared as the watermark passes it, so each slot names one fseq. *)
let mark_received l fseq =
  if fseq = l.rcv_next then begin
    l.rcv_next <- fseq + 1;
    let o = l.ooo in
    let m = Array.length o - 1 in
    while m >= 0 && o.(l.rcv_next land m) <> 0 do
      o.(l.rcv_next land m) <- 0;
      l.rcv_next <- l.rcv_next + 1
    done
  end
  else if fseq > l.rcv_next then begin
    if fseq - l.rcv_next >= Array.length l.ooo then grow_ooo l fseq;
    l.ooo.(fseq land (Array.length l.ooo - 1)) <- 1
  end

let already_received l fseq =
  fseq < l.rcv_next
  || (fseq - l.rcv_next < Array.length l.ooo && l.ooo.(fseq land (Array.length l.ooo - 1)) <> 0)

(* A cumulative ack for the link: every send up to [cum] is acked.
   Idempotent — older acks are no-ops — and never past the last send, so
   an empty slot is never written. *)
let apply_cum l cum =
  let cum = Int.min cum (l.next - 1) in
  if cum > l.acked then l.acked <- cum

(* The one drop rule, applied when a frame or timer pops. A frame copy is
   dead once a crash reset its link after it was queued; a timer is dead
   once its send was acked too. A dead frame applies no pack, no credit
   and no ack. A live copy of an acked send is a duplicate: the receiver
   suppresses it and owes its ack again. A task that goes stale on the
   way rides its frame and dies as it is delivered: no holes. *)
let dead_copy l inc = inc <> l.inc
let dead_timer l inc fseq = fseq <= l.acked || dead_copy l inc

(* Room in the sender's ring for one more unacked send: a ring twice as
   large, each row and frame re-seated at its fseq's slot. *)
let reserve_unacked l =
  let cap = Array.length l.frames in
  if l.next - 1 - l.acked >= cap then begin
    let cap' = Int.max 8 (2 * cap) in
    let rows = Array.make (cap' * row_w) 0 and frames = Array.make cap' no_batch in
    for f = l.acked + 1 to l.next - 1 do
      let o = f land (cap - 1) and n = f land (cap' - 1) in
      Array.blit l.rows (o * row_w) rows (n * row_w) row_w;
      frames.(n) <- l.frames.(o)
    done;
    l.rows <- rows;
    l.frames <- frames
  end

(* The receiver owes the sender a cumulative ack: remember the link (and
   the triggering frame's base delay, for the ack's travel time). Every
   owed link is settled at the next flush — piggybacked or standalone —
   so [owed] never carries across more than one step. *)
let owe_ack t l ~delay =
  if l.owe < 0 then begin
    let n = t.n_owed in
    if n = Array.length t.owed then begin
      let a = Array.make (Int.max 8 (2 * n)) l in
      Array.blit t.owed 0 a 0 n;
      t.owed <- a
    end;
    Array.unsafe_set t.owed n l;
    t.n_owed <- n + 1
  end;
  l.owe <- delay

(* A queued copy's row in the frame table, reusing a popped copy's slot
   when there is one: allocation-free once the table has grown. *)
let frame_slot t ~pack ~epoch ~sent ~executed ~delay ~inc =
  let fr = t.ft_free in
  let s =
    if fr.Lanes.n > 0 then begin
      fr.Lanes.n <- fr.Lanes.n - 1;
      fr.Lanes.a.(fr.Lanes.n)
    end
    else begin
      Lanes.reserve t.ft ft_w;
      t.ft.Lanes.n <- t.ft.Lanes.n + ft_w;
      (t.ft.Lanes.n / ft_w) - 1
    end
  in
  let a = t.ft.Lanes.a and i = s * ft_w in
  a.(i) <- pack;
  a.(i + 1) <- epoch;
  a.(i + 2) <- sent;
  a.(i + 3) <- executed;
  a.(i + 4) <- delay;
  a.(i + 5) <- inc;
  s

(* One physical transmission of unacked send [fseq] through the fault
   plane: roll duplicate (two independent copies on a hit), then every
   copy rolls drop and extra delay. [arrival] is the fault-free arrival
   step; [base] the link delay that scales the fault plane's extra
   delay. *)
let transmit_data t f ~arrival ~base ~pack l fseq =
  let pe = l.l_src in
  let epoch = t.credit_epoch pe and sent = t.credit_sent pe and executed = t.credit_executed pe in
  let copies =
    if Faults.duplicates_frame f then begin
      emit_head t l fseq `Dup;
      2
    end
    else 1
  in
  for _ = 1 to copies do
    if Faults.drops_frame f then emit_head t l fseq `Drop
    else begin
      let at = arrival + Faults.extra_delay f ~latency:base in
      Pqueue.add_tagged t.fq at ~tag:fseq
        ~aux:(frame_slot t ~pack ~epoch ~sent ~executed ~delay:base ~inc:l.inc)
        l
    end
  done

(* Acks roll drop and delay only — duplicating an ack is a no-op, and
   keeping it out of the stream keeps the dup counter equal to the
   number of Dup events. The ack carries its sender's (the link's
   receiver's) credit. *)
let transmit_ack t f ~arrival ~base l cum =
  let pe = l.l_dst in
  let epoch = t.credit_epoch pe and sent = t.credit_sent pe and executed = t.credit_executed pe in
  if not (Faults.drops_frame f) then begin
    let at = arrival + Faults.extra_delay f ~latency:base in
    Pqueue.add_tagged t.fq at ~tag:cum
      ~aux:(lnot (frame_slot t ~pack:min_int ~epoch ~sent ~executed ~delay:base ~inc:l.inc))
      l
  end

(* Drop [staged]'s frames from their senders' indexes; call before
   [staged] is cleared or filtered. Only a link with a staged frame can
   have a non-empty index entry, so this costs the staged count, not the
   machine size. *)
let unindex t =
  let st = t.staged in
  for i = 0 to st.Frames.n - 1 do
    let b = Array.unsafe_get st.Frames.a i in
    Frames.clear t.senders.(b.b_src + 1).forming.(b.b_dst)
  done

(* Rebuild the indexes after [staged] was filtered, in stage order. *)
let reindex t =
  Frames.iter (fun b -> Frames.push t.senders.(b.b_src + 1).forming.(b.b_dst) b) t.staged

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
  let st = t.staged in
  for i = st.Frames.n - 1 downto 0 do
    let b = Array.unsafe_get st.Frames.a i in
    if b.b_src >= 0 then begin
      let r = slot t ~src:b.b_dst ~dst:b.b_src in
      if r.owe >= 0 then begin
        r.owe <- -1;
        b.b_pack <- true
      end
    end
  done;
  for i = 0 to st.Frames.n - 1 do
    let b = Array.unsafe_get st.Frames.a i in
    let l = link t ~src:b.b_src ~dst:b.b_dst in
    if l.next >= seq_guard then
      invalid_arg "Network.send: per-link sequence space exhausted";
    reserve_unacked l;
    let fseq = l.next in
    let i = row l fseq and r = l.rows and rto = (2 * b.b_delay) + 2 in
    r.(i + r_delay) <- b.b_delay;
    r.(i + r_attempts) <- 1;
    r.(i + r_rto) <- rto;
    r.(i + r_delivered) <- 0;
    l.frames.(ring_at l fseq) <- b;
    l.next <- fseq + 1;
    Pqueue.add_tagged t.timers (now + rto) ~tag:fseq ~aux:l.inc l;
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
    transmit_data t f ~arrival:b.b_arrival ~base:b.b_delay ~pack l fseq
  done;
  unindex t;
  Frames.clear st;
  (* Standalone acks for links no reverse data frame covered. *)
  for i = 0 to t.n_owed - 1 do
    let l = Array.unsafe_get t.owed i in
    if l.owe >= 0 then begin
      let delay = l.owe and cum = l.rcv_next - 1 in
      l.owe <- -1;
      t.acks_sent <- t.acks_sent + 1;
      emit_cum_ack t ~src:l.l_src ~dst:l.l_dst ~upto:cum ~piggyback:false;
      transmit_ack t f ~arrival:(now + delay) ~base:delay l cum
    end
  done;
  t.n_owed <- 0

(* Fault-free flush: batches go straight into the ideal channel's
   arrival buckets, in stage order, so delivery order is deterministic. *)
let flush_ideal t =
  let st = t.staged in
  for i = 0 to st.Frames.n - 1 do
    let b = Array.unsafe_get st.Frames.a i in
    emit_batch t b;
    Ideal.add t.q b
  done;
  unindex t;
  Frames.clear st

(* The per-PE arrays grow only outside the shard phase, so a shard's
   sends never see them move. *)
let reserve t ~pes =
  let n = Array.length t.inbox in
  if pes > n then begin
    if t.sharding then
      invalid_arg
        (Printf.sprintf "Network: PE %d is outside the %d reserved before the shard phase"
           (pes - 1) n);
    let grow a = Array.init pes (fun i -> if i < n then a.(i) else Frames.create ()) in
    if Option.is_some t.faults then begin
      let old = t.links in
      t.links <- Array.make ((pes + 1) * pes) t.no_link;
      Array.iter
        (fun l -> if l != t.no_link then t.links.(((l.l_src + 1) * pes) + l.l_dst) <- l)
        old
    end;
    t.inbox <- grow t.inbox;
    t.sent_in_phase <- Bitset.create (pes + 1);
    Array.iter (fun s -> s.forming <- grow s.forming) t.senders;
    let ns = Array.length t.senders in
    t.senders <-
      Array.init (pes + 1) (fun i ->
          if i < ns then t.senders.(i)
          else
            {
              forming = Array.init pes (fun _ -> Frames.create ());
              opened = Frames.create ();
              tickets = Frames.create ();
              ticket_args = Lanes.create ();
              free = Frames.create ();
              tasks = 0;
            })
  end

(* Pop a recycled frame from [fl], or allocate one. The caller fills the
   scalar header; the emptied lanes keep their storage. *)
let batch_for fl = if fl.Frames.n > 0 then Frames.pop fl else dummy_batch ()

(* The forming frame for [arrival] among [bs], newest first, or [dummy].
   Top-level with every argument passed, so a miss allocates no
   closure. *)
let rec scan_forming bs ~arrival i dummy =
  if i < 0 then dummy
  else
    let b = Array.unsafe_get bs.Frames.a i in
    if b.b_arrival = arrival then b else scan_forming bs ~arrival (i - 1) dummy

let number t b =
  b.b_uid <- t.next_uid;
  t.next_uid <- t.next_uid + 1;
  Frames.push t.staged b

(* The one staging lookup: the frame forming on link (src, pe) for
   [arrival] (a link has one per pending arrival, so the scan is short),
   opened on a miss. Outside the shard phase a new frame is numbered and
   staged at once; in the shard phase the frame and the task count wait
   in the sender's record for [seal]. Allocation-free on a hit. *)
let frame_for t ~src ~arrival ~pe =
  if Int.max src pe >= Array.length t.inbox then reserve t ~pes:(1 + Int.max src pe);
  let s = t.senders.(src + 1) in
  let bs = s.forming.(pe) in
  let b =
    if t.batching then scan_forming bs ~arrival (bs.Frames.n - 1) no_batch else no_batch
  in
  let b =
    if b != no_batch then b
    else begin
      let b = batch_for s.free in
      b.b_src <- src;
      b.b_dst <- pe;
      b.b_arrival <- arrival;
      b.b_delay <- Int.max 1 (arrival - t.clock);
      b.b_pack <- false;
      Frames.push bs b;
      if t.sharding then Frames.push s.opened b else number t b;
      b
    end
  in
  if t.sharding then begin
    if s.tasks = 0 then Bitset.add t.sent_in_phase (src + 1);
    s.tasks <- s.tasks + 1
  end
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
      Frames.push t.senders.(src + 1).tickets b;
      Lanes.push3 t.senders.(src + 1).ticket_args (l.Lanes.n + 6) lin depth;
      -1
    | Some lg -> Dgr_obs.Lineage.open_ticket lg ~lin ~depth ~sent:t.clock ~arrival
  in
  let pay =
    if Task.head_vtag head = Task.v_err then begin
      let k = b.b_nerrs in
      if k = Array.length b.b_errs then begin
        let errs = Array.make (Int.max 4 (2 * k)) "" in
        Array.blit b.b_errs 0 errs 0 k;
        b.b_errs <- errs
      end;
      b.b_errs.(k) <- err;
      b.b_nerrs <- k + 1;
      k
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

(* Every sender that sent in the shard phase, in ascending PE order:
   its new frames numbered and staged in open order, its tickets opened
   in post order, its count folded — what sending PE after PE outside
   the shard phase would have staged. A sender that sent nothing has
   nothing to seal, so the pass costs the senders that sent, not the
   machine size. *)
let seal t =
  let i = ref (Bitset.next t.sent_in_phase 0) in
  while !i >= 0 do
    let s = t.senders.(!i) in
    let op = s.opened in
    for k = 0 to op.Frames.n - 1 do
      number t (Array.unsafe_get op.Frames.a k)
    done;
    Frames.clear op;
    for k = 0 to s.tickets.Frames.n - 1 do
      let b = Array.unsafe_get s.tickets.Frames.a k and a = s.ticket_args.Lanes.a in
      b.b_lanes.Lanes.a.(a.(3 * k)) <-
        Dgr_obs.Lineage.open_ticket (Option.get t.lineage) ~lin:a.((3 * k) + 1)
          ~depth:a.((3 * k) + 2) ~sent:t.clock ~arrival:b.b_arrival
    done;
    Frames.clear s.tickets;
    s.ticket_args.Lanes.n <- 0;
    t.undelivered <- t.undelivered + s.tasks;
    t.tasks_sent <- t.tasks_sent + s.tasks;
    s.tasks <- 0;
    i := Bitset.next t.sent_in_phase (!i + 1)
  done;
  Bitset.clear t.sent_in_phase;
  t.sharding <- false

(* Sends [seal] has not published would escape a flush or crash. *)
let check_sealed t fn =
  if t.sharding then
    Array.iteri
      (fun i s ->
        if s.tasks > 0 then
          invalid_arg
            (Printf.sprintf "Network.%s: src %d holds %d unsealed frame(s) (%d tasks)" fn
               (i - 1) s.opened.Frames.n s.tasks))
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

(* Return a delivered frame to its sender's free list: at delivery, or
   from its destination's shard once its marks are taken. After delivery
   the batch is referenced nowhere that reads it: the flush emptied
   [staged] and the index, and a lossy send's row keeps its own delay
   and captured head, its slot in the link's frame ring [no_batch]. Each
   list is capped so a burst does not pin its high-water mark of frames
   forever. *)
let free_batches_cap = 32

let recycle_batch t b =
  let fl = t.senders.(b.b_src + 1).free in
  if fl.Frames.n < free_batches_cap then begin
    b.b_lanes.Lanes.n <- 0;
    b.b_nerrs <- 0;
    b.b_count <- 0;
    b.b_marks <- 0;
    Frames.push fl b
  end

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
   either channel. This is the only place a frame parks. *)
let settle t b ~now ~push =
  if deliver_batch t b ~now ~push then begin
    let ib = t.inbox.(b.b_dst) in
    if ib.Frames.n = 0 then t.on_park b.b_dst;
    Frames.push ib b
  end
  else recycle_batch t b

(* A live copy of data frame [fseq] on link [l] pops. *)
let receive t f l fseq ~pack ~epoch ~sent ~executed ~delay ~now ~push =
  (* a piggybacked cum ack settles the reverse data link *)
  if pack > min_int then apply_cum (slot t ~src:l.l_dst ~dst:l.l_src) pack;
  (* credits apply even on duplicate frames — idempotent *)
  apply_credit t ~pe:l.l_src ~epoch ~sent ~executed;
  if already_received l fseq then
    (* redelivery of a frame already seen: suppress — this is the
       exactly-once edge *)
    f.Faults.dup_suppressed <- f.Faults.dup_suppressed + 1
  else begin
    (* not yet received, so not yet acked: the send is in the ring *)
    let j = ring_at l fseq in
    let b = l.frames.(j) and i = j * row_w and r = l.rows in
    mark_received l fseq;
    r.(i + r_head) <- head_lane b;
    r.(i + r_vid) <- head_vid b;
    r.(i + r_delivered) <- 1;
    l.frames.(j) <- no_batch;
    settle t b ~now ~push
  end;
  (* always owe an ack, even for duplicates: the previous cumulative ack
     may have been lost *)
  owe_ack t l ~delay

let deliver_serial t ~now ~push =
  check_sealed t "deliver_serial";
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
      for k = 0 to v.Frames.n - 1 do
        settle t (Array.unsafe_get v.Frames.a k) ~now ~push
      done
    done
  | Some f ->
    flush t f ~now;
    while Pqueue.min_prio t.fq ~default:max_int <= now do
      let seq = Pqueue.min_tag t.fq and aux = Pqueue.min_aux t.fq in
      let l = Pqueue.pop_min t.fq in
      let s = if aux >= 0 then aux else lnot aux in
      let a = t.ft.Lanes.a and k = s * ft_w in
      let pack = a.(k) and epoch = a.(k + 1) and sent = a.(k + 2) and executed = a.(k + 3)
      and delay = a.(k + 4) and inc = a.(k + 5) in
      Lanes.push t.ft_free s;
      if dead_copy l inc then ()
      else if aux >= 0 then receive t f l seq ~pack ~epoch ~sent ~executed ~delay ~now ~push
      else begin
        apply_cum l seq;
        apply_credit t ~pe:l.l_dst ~epoch ~sent ~executed
      end
    done;
    while Pqueue.min_prio t.timers ~default:max_int <= now do
      let fseq = Pqueue.min_tag t.timers and inc = Pqueue.min_aux t.timers in
      let l = Pqueue.pop_min t.timers in
      if not (dead_timer l inc fseq) then begin
        let i = row l fseq and r = l.rows in
        r.(i + r_attempts) <- r.(i + r_attempts) + 1;
        f.Faults.retransmits <- f.Faults.retransmits + 1;
        emit_head t l fseq `Retransmit;
        (* the whole batch retransmits as a unit, without a piggybacked
           ack (the ack path has its own redundancy: every receipt
           re-owes the watermark) *)
        let delay = r.(i + r_delay) in
        transmit_data t f ~arrival:(now + delay) ~base:delay ~pack:min_int l fseq;
        let rto = Int.min (r.(i + r_rto) * 2) rto_cap in
        r.(i + r_rto) <- rto;
        Pqueue.add_tagged t.timers (now + rto) ~tag:fseq ~aux:inc l
      end
    done

(* Runs on [pe]'s shard. A parked frame is read nowhere else once its
   marks are taken, so it goes back to its sender's free list at once, on
   either channel. *)
let take_frames t ~pe x (f : 'a -> batch -> unit) =
  if pe < Array.length t.inbox then begin
    let ib = t.inbox.(pe) in
    for k = 0 to ib.Frames.n - 1 do
      let b = Array.unsafe_get ib.Frames.a k in
      f x b;
      recycle_batch t b
    done;
    Frames.clear ib
  end

let push_frame ring b = Mark_ring.push_marks ring b.b_lanes.Lanes.a b.b_lanes.Lanes.n

let take_mark_lanes t ~pe ring = take_frames t ~pe ring push_frame

let parked_frames t ~pe = if pe < Array.length t.inbox then t.inbox.(pe).Frames.n else 0

let view_frame f b =
  let a = b.b_lanes.Lanes.a and n = b.b_lanes.Lanes.n in
  let i = ref 0 in
  while !i < n do
    let k = !i in
    let w = width a k in
    if w = 3 then f (Task.Marking (Task.mark_of_lanes a.(k) a.(k + 1) a.(k + 2)));
    i := k + w
  done

(* The whole tick at once: the serial half, then every PE's marks in
   ascending PE order, all as views. *)
let deliver_into t ~now ~push =
  deliver_serial t ~now ~push:(fun pe a i err ->
      push pe a.(i + 6) (Task.Reduction (Task.reduction_of_row a i err)));
  for pe = 0 to Array.length t.inbox - 1 do
    take_frames t ~pe (fun task -> push pe (-1) task) view_frame
  done

(* [f b] for the frame of each of the link's unacked sends that is not
   yet delivered, in fseq order. *)
let iter_in_transit l f =
  for fseq = l.acked + 1 to l.next - 1 do
    let j = ring_at l fseq in
    if l.rows.((j * row_w) + r_delivered) = 0 then f l.frames.(j)
  done

(* Every undelivered batch: the channel's (the ideal channel's by
   arrival bucket, the lossy channel's link by link in fseq order), then
   the staged ones (sent this step, flushing next tick: between ticks
   they are exactly as in-flight as queued ones). A fixed order, free of
   hash-table and heap layout. *)
let iter_undelivered t f =
  (match t.faults with
  | None -> Ideal.iter f t.q
  | Some _ -> Array.iter (fun l -> iter_in_transit l f) t.links);
  Frames.iter f t.staged

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

(* Test hook: fast-forward an idle link to exercise the wraparound guard
   without billions of sends, as if its first [n] sends had been
   delivered and acked. *)
let set_link_seq t ~src ~dst n =
  if Int.max src dst >= Array.length t.inbox then reserve t ~pes:(1 + Int.max src dst);
  let l = link t ~src ~dst in
  l.next <- n;
  l.acked <- n - 1;
  l.rcv_next <- n

(* A PE crash severs every link touching [pe], both directions, all at
   once: its row and column of link records are reset in place to a
   new incarnation, so traffic after recovery restarts at fseq 0 while
   queued frame copies, acks and timers of the old incarnation die when
   they pop, and nothing pre-crash can act on the restarted link. Staged
   batches (not yet on a link) are discarded here. Returns the number of
   undelivered tasks lost; their lineage tickets are dropped.
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
  Frames.filter_in_place survives t.staged;
  reindex t;
  (match t.faults with
  | None ->
    (* ideal channel (a crash injected without a fault plane) *)
    Ideal.filter_in_place survives t.q
  | Some _ ->
    let pes = Array.length t.inbox in
    let reset i =
      let l = t.links.(i) in
      if l != t.no_link then begin
        iter_in_transit l forget_batch;
        Array.fill l.frames 0 (Array.length l.frames) no_batch;
        Array.fill l.ooo 0 (Array.length l.ooo) 0;
        l.inc <- l.inc + 1;
        l.next <- 0;
        l.acked <- -1;
        l.rcv_next <- 0;
        l.owe <- -1
      end
    in
    if pe < pes then begin
      for dst = 0 to pes - 1 do
        reset (((pe + 1) * pes) + dst)
      done;
      for src = -1 to pes - 1 do
        reset (((src + 1) * pes) + pe)
      done
    end;
    (* a severed link owes nothing *)
    let j = ref 0 in
    for i = 0 to t.n_owed - 1 do
      let l = t.owed.(i) in
      if l.owe >= 0 then begin
        t.owed.(!j) <- l;
        incr j
      end
    done;
    t.n_owed <- !j);
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
