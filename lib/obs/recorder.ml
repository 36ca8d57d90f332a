type sample = {
  s_step : int;
  s_live : int;
  s_in_flight : int;
  s_headroom : int;
  s_pool_depth : int array;
  s_marking : int array;
  s_reduction : int array;
  s_drops : int;
  s_dups : int;
  s_retransmits : int;
  s_stalls : int;
  s_frames : int;
  s_batched_tasks : int;
  s_acks_piggybacked : int;
}

(* A chunk is one sub-recorder's events for one step, linked (not
   re-emitted) into the merged recorder at the barrier. The raw event
   records keep their stale source stamps; the chunk header carries the
   destination clock and the base sequence assigned at absorb time, and
   [events] restamps on the way out. [c_skip] is the evicted prefix, so
   capacity retention stays per-event even at chunk granularity. *)
type chunk = {
  c_step : int;  (* dst clock at absorb: every event's merged step stamp *)
  c_base : int;  (* dst seq of the chunk's first event *)
  c_buf : Event.t array;
  c_len : int;
  mutable c_skip : int;
}

type t = {
  cap : int;
  mutable buf : Event.t array;
  mutable start : int;  (* index of the oldest retained event *)
  mutable len : int;
  mutable seq : int;  (* total events ever emitted *)
  mutable clock : int;
  (* linked chunks, FIFO in [chunk_head, chunk_tail) *)
  mutable chunks : chunk array;
  mutable chunk_head : int;
  mutable chunk_tail : int;
  mutable chunk_events : int;  (* unskipped events across live chunks *)
  pes : int;
  period : int;
  mutable samples_rev : sample list;
  mark_delta : int array;
  red_delta : int array;
  mutable drop_delta : int;
  mutable dup_delta : int;
  mutable retransmit_delta : int;
  mutable stall_delta : int;
  mutable frame_delta : int;
  mutable batched_delta : int;
  mutable piggyback_delta : int;
}

let dummy = { Event.step = 0; seq = -1; kind = Event.Finished }

(* Shared filler for dead chunk slots; never mutated (eviction only
   touches chunks inside [chunk_head, chunk_tail)). *)
let dummy_chunk = { c_step = 0; c_base = -1; c_buf = [||]; c_len = 0; c_skip = 0 }

let create ?(capacity = 65536) ?(sample_every = 0) ~num_pes () =
  let cap = Int.max 1 capacity in
  {
    cap;
    buf = Array.make cap dummy;
    start = 0;
    len = 0;
    seq = 0;
    clock = 0;
    chunks = [||];
    chunk_head = 0;
    chunk_tail = 0;
    chunk_events = 0;
    pes = Int.max 1 num_pes;
    period = sample_every;
    samples_rev = [];
    mark_delta = Array.make (Int.max 1 num_pes) 0;
    red_delta = Array.make (Int.max 1 num_pes) 0;
    drop_delta = 0;
    dup_delta = 0;
    retransmit_delta = 0;
    stall_delta = 0;
    frame_delta = 0;
    batched_delta = 0;
    piggyback_delta = 0;
  }

let set_now t now = t.clock <- now

let now t = t.clock

let num_pes t = t.pes

let sample_every t = t.period

(* Evict the globally-oldest retained event — the smaller sequence
   number between the ring's head and the head chunk's next live event —
   so retention stays "the last [cap] events emitted" whether events
   live in the ring or in linked chunks. *)
let evict_oldest t =
  let chunk_seq =
    if t.chunk_head < t.chunk_tail then
      let ch = t.chunks.(t.chunk_head) in
      ch.c_base + ch.c_skip
    else max_int
  in
  let ring_seq = if t.len > 0 then t.buf.(t.start).Event.seq else max_int in
  if chunk_seq < ring_seq then begin
    let ch = t.chunks.(t.chunk_head) in
    ch.c_skip <- ch.c_skip + 1;
    t.chunk_events <- t.chunk_events - 1;
    if ch.c_skip = ch.c_len then begin
      t.chunks.(t.chunk_head) <- dummy_chunk;
      t.chunk_head <- t.chunk_head + 1;
      if t.chunk_head = t.chunk_tail then begin
        t.chunk_head <- 0;
        t.chunk_tail <- 0
      end
    end
  end
  else begin
    t.start <- (t.start + 1) mod t.cap;
    t.len <- t.len - 1
  end

let push_chunk t ch =
  if t.chunk_tail = Array.length t.chunks then begin
    let live = t.chunk_tail - t.chunk_head in
    if t.chunk_head > 0 then begin
      Array.blit t.chunks t.chunk_head t.chunks 0 live;
      Array.fill t.chunks live t.chunk_head dummy_chunk;
      t.chunk_head <- 0;
      t.chunk_tail <- live
    end;
    if t.chunk_tail = Array.length t.chunks then
      t.chunks <-
        Array.append t.chunks
          (Array.make (Int.max 16 (Array.length t.chunks)) dummy_chunk)
  end;
  t.chunks.(t.chunk_tail) <- ch;
  t.chunk_tail <- t.chunk_tail + 1

let emit t kind =
  (match kind with
  | Event.Execute { kind = k; pe; _ } when pe >= 0 && pe < t.pes -> (
    match k with
    | Event.Mark | Event.Return_mark -> t.mark_delta.(pe) <- t.mark_delta.(pe) + 1
    | Event.Request | Event.Respond | Event.Cancel ->
      t.red_delta.(pe) <- t.red_delta.(pe) + 1)
  | Event.Drop _ -> t.drop_delta <- t.drop_delta + 1
  | Event.Dup _ -> t.dup_delta <- t.dup_delta + 1
  | Event.Retransmit _ -> t.retransmit_delta <- t.retransmit_delta + 1
  | Event.Stall _ -> t.stall_delta <- t.stall_delta + 1
  | Event.Batch { count; _ } ->
    t.frame_delta <- t.frame_delta + 1;
    t.batched_delta <- t.batched_delta + count
  | Event.Cum_ack { piggyback = true; _ } ->
    t.piggyback_delta <- t.piggyback_delta + 1
  | _ -> ());
  let e = { Event.step = t.clock; seq = t.seq; kind } in
  t.seq <- t.seq + 1;
  if t.len + t.chunk_events >= t.cap then evict_oldest t;
  (* [len + chunk_events <= cap] implies the ring has a free slot here:
     if the eviction came out of a chunk, [len < cap] already held. *)
  t.buf.((t.start + t.len) mod t.cap) <- e;
  t.len <- t.len + 1

let length t = t.len + t.chunk_events

let capacity t = t.cap

let emitted t = t.seq

let dropped t = t.seq - length t

(* Merge the ring and the linked chunks by sequence number (both are
   internally ascending and mutually disjoint), restamping chunk events
   with their merged (step, seq) on the way out. *)
let events t =
  let out = ref [] in
  let ri = ref 0 in
  let ci = ref t.chunk_head in
  let coff = ref (if t.chunk_head < t.chunk_tail then t.chunks.(t.chunk_head).c_skip else 0) in
  for _ = 1 to length t do
    let ring_seq =
      if !ri < t.len then t.buf.((t.start + !ri) mod t.cap).Event.seq else max_int
    in
    let chunk_seq =
      if !ci < t.chunk_tail then t.chunks.(!ci).c_base + !coff else max_int
    in
    if chunk_seq < ring_seq then begin
      let ch = t.chunks.(!ci) in
      out :=
        { Event.step = ch.c_step; seq = chunk_seq; kind = ch.c_buf.(!coff).Event.kind }
        :: !out;
      incr coff;
      if !coff = ch.c_len then begin
        incr ci;
        coff := (if !ci < t.chunk_tail then t.chunks.(!ci).c_skip else 0)
      end
    end
    else begin
      out := t.buf.((t.start + !ri) mod t.cap) :: !out;
      incr ri
    end
  done;
  List.rev !out

let tick t ~live ~in_flight ~headroom ~pool_depth =
  if t.period > 0 && t.clock mod t.period = 0 then begin
    let s =
      {
        s_step = t.clock;
        s_live = live;
        s_in_flight = in_flight;
        s_headroom = headroom;
        s_pool_depth = Array.init t.pes (fun i -> if i < Array.length pool_depth then pool_depth.(i) else 0);
        s_marking = Array.copy t.mark_delta;
        s_reduction = Array.copy t.red_delta;
        s_drops = t.drop_delta;
        s_dups = t.dup_delta;
        s_retransmits = t.retransmit_delta;
        s_stalls = t.stall_delta;
        s_frames = t.frame_delta;
        s_batched_tasks = t.batched_delta;
        s_acks_piggybacked = t.piggyback_delta;
      }
    in
    t.samples_rev <- s :: t.samples_rev;
    Array.fill t.mark_delta 0 t.pes 0;
    Array.fill t.red_delta 0 t.pes 0;
    t.drop_delta <- 0;
    t.dup_delta <- 0;
    t.retransmit_delta <- 0;
    t.stall_delta <- 0;
    t.frame_delta <- 0;
    t.batched_delta <- 0;
    t.piggyback_delta <- 0
  end

let samples t = List.rev t.samples_rev

(* Replay a sub-recorder's buffered events into [t] and reset it. The
   sharded engine gives each PE a private sub-recorder (so emitting never
   contends across domains) and drains them at the step barrier in
   ascending PE order; re-emitting through [emit] restamps each event
   with [t]'s clock and sequence, so the merged stream is identical to
   what a serial run would have recorded. Raises if [src] has wrapped —
   sub-recorders are sized for one step's events, drained every step. *)
let reset_src src =
  src.start <- 0;
  src.len <- 0;
  src.seq <- 0;
  Array.fill src.mark_delta 0 src.pes 0;
  Array.fill src.red_delta 0 src.pes 0;
  src.drop_delta <- 0;
  src.dup_delta <- 0;
  src.retransmit_delta <- 0;
  src.stall_delta <- 0;
  src.frame_delta <- 0;
  src.batched_delta <- 0;
  src.piggyback_delta <- 0

let drain_into ~src ~dst =
  if src.seq > src.len then
    invalid_arg "Recorder.drain_into: source ring wrapped; events lost";
  for i = 0 to src.len - 1 do
    emit dst src.buf.((src.start + i) mod src.cap).Event.kind
  done;
  reset_src src

(* The O(1)-per-shard drain: link [src]'s buffer into [dst] as one chunk
   instead of re-emitting event by event. The time-series deltas [src]
   accumulated at emit time are added in bulk (its emit ran the same
   classification the re-emit would have), [dst.seq] advances by the
   chunk length, and the stale per-event stamps are recovered at export
   by [events] from the chunk header — so the merged stream is
   byte-identical to [drain_into]'s. A nearly-full source donates its
   buffer outright and gets a fresh one; small drains (the common case)
   share the event records through [Array.sub], a pointer blit. *)
let absorb_chunks ~src ~dst =
  if src.seq > src.len then
    invalid_arg "Recorder.absorb_chunks: source ring wrapped; events lost";
  if src.pes <> dst.pes then
    invalid_arg "Recorder.absorb_chunks: PE count mismatch";
  let n = src.len in
  if n > 0 then begin
    for pe = 0 to src.pes - 1 do
      dst.mark_delta.(pe) <- dst.mark_delta.(pe) + src.mark_delta.(pe);
      dst.red_delta.(pe) <- dst.red_delta.(pe) + src.red_delta.(pe)
    done;
    dst.drop_delta <- dst.drop_delta + src.drop_delta;
    dst.dup_delta <- dst.dup_delta + src.dup_delta;
    dst.retransmit_delta <- dst.retransmit_delta + src.retransmit_delta;
    dst.stall_delta <- dst.stall_delta + src.stall_delta;
    dst.frame_delta <- dst.frame_delta + src.frame_delta;
    dst.batched_delta <- dst.batched_delta + src.batched_delta;
    dst.piggyback_delta <- dst.piggyback_delta + src.piggyback_delta;
    let steal = n * 4 >= src.cap in
    let cbuf = if steal then src.buf else Array.sub src.buf 0 n in
    if steal then src.buf <- Array.make src.cap dummy;
    push_chunk dst { c_step = dst.clock; c_base = dst.seq; c_buf = cbuf; c_len = n; c_skip = 0 };
    dst.seq <- dst.seq + n;
    dst.chunk_events <- dst.chunk_events + n;
    while dst.len + dst.chunk_events > dst.cap do
      evict_oldest dst
    done
  end;
  reset_src src
