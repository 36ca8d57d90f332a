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

type t = {
  cap : int;
  buf : Event.t array;
  mutable start : int;  (* index of the oldest retained event *)
  mutable len : int;
  mutable seq : int;  (* total events ever emitted *)
  mutable clock : int;
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

let create ?(capacity = 65536) ?(sample_every = 0) ~num_pes () =
  let cap = Int.max 1 capacity in
  {
    cap;
    buf = Array.make cap dummy;
    start = 0;
    len = 0;
    seq = 0;
    clock = 0;
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
  (* A full ring drops its oldest event. *)
  if t.len = t.cap then t.start <- (t.start + 1) mod t.cap else t.len <- t.len + 1;
  t.buf.((t.start + t.len - 1) mod t.cap) <- e

let length t = t.len

let capacity t = t.cap

let emitted t = t.seq

let dropped t = t.seq - length t

let events t = List.init t.len (fun i -> t.buf.((t.start + i) mod t.cap))

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

(* Replay a sub-recorder's buffered events into [dst] and reset it. The
   sharded engine gives each PE a private sub-recorder (so a PE's events
   never interleave with another's) and drains them at the step barrier
   in ascending PE order; re-emitting through [emit] restamps each event
   with [dst]'s clock and sequence, so the merged stream is identical to
   what a serial run would have recorded. Raises if [src] has wrapped —
   sub-recorders are sized for one step's events, drained every step. *)
let drain_into ~src ~dst =
  if src.seq > src.len then
    invalid_arg
      (Printf.sprintf
         "Recorder.drain_into: source ring wrapped: %d events emitted since the last \
          drain, capacity %d, %d lost"
         src.seq src.cap (src.seq - src.len));
  for i = 0 to src.len - 1 do
    emit dst src.buf.((src.start + i) mod src.cap).Event.kind
  done;
  reset_src src
