type color = Unmarked | Transient | Marked

type parent = Rootpar | Parent of Vid.t

type id = MR | MT

(* One marking plane's state for a whole storage chunk, as parallel
   columns: colour packed one byte per slot, the counter/parent/priority
   words one cell per slot (the parent as a vid, -1 for rootpar, so the
   marking hot path reads and writes it without boxing). Chunks never
   move once allocated (see [Graph]), so a handle caches the column
   arrays directly.

   The [c_epoch] column makes between-cycle resets O(1): a slot's state
   is valid only while its epoch equals the chunk's current epoch
   [cur]; a stale slot reads as pristine (unmarked, zero, rootpar) and
   is lazily re-zeroed the first time the new wave writes it. Bumping
   [cur] therefore resets the whole chunk without touching a slot —
   which is what lets cycle N+1's mark wave start while cycle N's
   restructuring is still draining, instead of a bulk wipe that has to
   wait for every outstanding reader. Epochs start at 0 with [cur] at 1,
   so a fresh chunk is wholly stale, i.e. wholly pristine. *)
type cols = {
  c_color : Bytes.t;
  c_cnt : int array;
  c_par : int array;
  c_prior : int array;
  c_epoch : int array;
  mutable cur : int;
}

(* A handle onto one slot of a plane column set. Copying the handle is
   cheap and aliases the same state. *)
type t = { off : int; c : cols }

let make_cols n =
  {
    c_color = Bytes.make n '\000';
    c_cnt = Array.make n 0;
    c_par = Array.make n (-1);
    c_prior = Array.make n 0;
    c_epoch = Array.make n 0;
    cur = 1;
  }

let reset_cols c = c.cur <- c.cur + 1

let handle c off = { off; c }

let create () = handle (make_cols 1) 0

let live t = Array.unsafe_get t.c.c_epoch t.off = t.c.cur

(* Bring a stale slot into the current epoch, pristine. Every write goes
   through this first so a slot never mixes bits from two waves. *)
let materialize t =
  if not (live t) then begin
    Array.unsafe_set t.c.c_epoch t.off t.c.cur;
    Bytes.unsafe_set t.c.c_color t.off '\000';
    Array.unsafe_set t.c.c_cnt t.off 0;
    Array.unsafe_set t.c.c_par t.off (-1);
    Array.unsafe_set t.c.c_prior t.off 0
  end

let color t =
  if not (live t) then Unmarked
  else
    match Bytes.unsafe_get t.c.c_color t.off with
    | '\000' -> Unmarked
    | '\001' -> Transient
    | _ -> Marked

let set_color t col =
  materialize t;
  Bytes.unsafe_set t.c.c_color t.off
    (match col with Unmarked -> '\000' | Transient -> '\001' | Marked -> '\002')

let cnt t = if live t then Array.unsafe_get t.c.c_cnt t.off else 0

let set_cnt t n =
  materialize t;
  Array.unsafe_set t.c.c_cnt t.off n

let parent_of_vid v = if v < 0 then Rootpar else Parent v

let vid_of_parent = function Rootpar -> -1 | Parent v -> v

let par_vid t = if live t then Array.unsafe_get t.c.c_par t.off else -1

let set_par_vid t v =
  materialize t;
  Array.unsafe_set t.c.c_par t.off v

let par t = parent_of_vid (par_vid t)

let prior t = if live t then Array.unsafe_get t.c.c_prior t.off else 0

let set_prior t p =
  materialize t;
  Array.unsafe_set t.c.c_prior t.off p

(* Per-slot reset: mark the slot stale, which IS the pristine state. *)
let reset t = Array.unsafe_set t.c.c_epoch t.off 0

let unmarked t = (not (live t)) || Bytes.unsafe_get t.c.c_color t.off = '\000'

let transient t = live t && Bytes.unsafe_get t.c.c_color t.off = '\001'

let marked t = live t && Bytes.unsafe_get t.c.c_color t.off = '\002'

let touch t = set_color t Transient

let mark t = set_color t Marked

let unmark t =
  set_color t Unmarked;
  set_prior t 0

let equal_color (a : color) b = a = b

(* A boxed copy of one slot's plane state (checkpointing). Fields are
   mutable so an incremental checkpoint can refresh a stale shot in
   place instead of allocating a new one per sync. *)
type shot = {
  mutable s_color : color;
  mutable s_cnt : int;
  mutable s_par : int;
  mutable s_prior : int;
}

let capture t = { s_color = color t; s_cnt = cnt t; s_par = par_vid t; s_prior = prior t }

let recapture s t =
  s.s_color <- color t;
  s.s_cnt <- cnt t;
  s.s_par <- par_vid t;
  s.s_prior <- prior t

let matches s t =
  equal_color s.s_color (color t)
  && s.s_cnt = cnt t && s.s_par = par_vid t && s.s_prior = prior t

let restore s t =
  set_color t s.s_color;
  set_cnt t s.s_cnt;
  set_par_vid t s.s_par;
  set_prior t s.s_prior

let pp_color fmt = function
  | Unmarked -> Format.pp_print_string fmt "unmarked"
  | Transient -> Format.pp_print_string fmt "transient"
  | Marked -> Format.pp_print_string fmt "marked"

let pp_parent fmt = function
  | Rootpar -> Format.pp_print_string fmt "rootpar"
  | Parent v -> Vid.pp fmt v

let pp_id fmt = function
  | MR -> Format.pp_print_string fmt "M_R"
  | MT -> Format.pp_print_string fmt "M_T"

let pp fmt t =
  Format.fprintf fmt "{%a cnt=%d par=%a prior=%d}" pp_color (color t) (cnt t) pp_parent
    (par t) (prior t)
