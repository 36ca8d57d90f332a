open Dgr_util

type spec = {
  drop : float;
  duplicate : float;
  delay : float;
  stall : float;
  stall_max : int;
  crash : float;
  crash_down_max : int;
  fault_seed : int;
}

let none =
  {
    drop = 0.0;
    duplicate = 0.0;
    delay = 0.0;
    stall = 0.0;
    stall_max = 8;
    crash = 0.0;
    crash_down_max = 32;
    fault_seed = 0;
  }

let active s =
  s.drop > 0.0 || s.duplicate > 0.0 || s.delay > 0.0 || s.stall > 0.0 || s.crash > 0.0

type t = {
  spec : spec;
  net_rng : Rng.t;
  stall_rng : Rng.t;
  crash_rng : Rng.t;
  mutable drops : int;
  mutable dups : int;
  mutable delays : int;
  mutable retransmits : int;
  mutable dup_suppressed : int;
  mutable stalls : int;
  mutable stall_steps : int;
}

let create spec =
  let base = Rng.create (spec.fault_seed lxor 0x5eed) in
  (* The crash stream hangs off its own base so that adding it leaves the
     net/stall streams (and every pre-crash golden fixture) byte-identical:
     record fields evaluate in unspecified order, so a third [split] of the
     shared base could permute which stream each field receives. *)
  let crash_base = Rng.create (spec.fault_seed lxor 0xc4a54) in
  {
    spec;
    net_rng = Rng.split base;
    stall_rng = Rng.split base;
    crash_rng = Rng.split crash_base;
    drops = 0;
    dups = 0;
    delays = 0;
    retransmits = 0;
    dup_suppressed = 0;
    stalls = 0;
    stall_steps = 0;
  }

let roll rng p = p > 0.0 && Rng.chance rng p

let drops_frame t =
  let hit = roll t.net_rng t.spec.drop in
  if hit then t.drops <- t.drops + 1;
  hit

let duplicates_frame t =
  let hit = roll t.net_rng t.spec.duplicate in
  if hit then t.dups <- t.dups + 1;
  hit

let extra_delay t ~latency =
  if roll t.net_rng t.spec.delay then begin
    t.delays <- t.delays + 1;
    1 + Rng.int t.net_rng (Int.max 1 latency)
  end
  else 0

let stall_begins t ~pe:_ = roll t.stall_rng t.spec.stall

let stall_length t = 1 + Rng.int t.stall_rng t.spec.stall_max

let crash_begins t ~pe:_ = roll t.crash_rng t.spec.crash

let down_length t = 1 + Rng.int t.crash_rng t.spec.crash_down_max
