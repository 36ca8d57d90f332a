(* This unit owns everything one mark touches: the marking planes'
   columns (module [Plane], re-exported under that name by plane.ml), the
   vertex rows, the traced-children enumeration and the per-slot marking
   transitions of both schemes (mark1/mark3, mark2's modify, return1 and
   the flood visit). The libraries build in dune's default profile, which
   compiles with [-opaque]: a call into another unit is an out-of-line
   call through that unit's module block, never inlined. Inside one unit
   the column accessors inline, so a mark pays one call into here and the
   handler's [emit] per spawned child, not a call per accessor. *)

(* --- marking planes ------------------------------------------------- *)

module Plane = struct
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

  (* The slot operations take the column set and the offset, so the
     transitions below reach a vertex's plane through the vertex's own
     chunk columns, without loading the premade handle; the handle API
     is the same operations on [t.c] and [t.off]. *)
  let live c off = Array.unsafe_get c.c_epoch off = c.cur

  (* Bring a stale slot into the current epoch, pristine. Every write goes
     through this first so a slot never mixes bits from two waves. *)
  let materialize c off =
    if not (live c off) then begin
      Array.unsafe_set c.c_epoch off c.cur;
      Bytes.unsafe_set c.c_color off '\000';
      Array.unsafe_set c.c_cnt off 0;
      Array.unsafe_set c.c_par off (-1);
      Array.unsafe_set c.c_prior off 0
    end

  let color_at c off =
    if not (live c off) then Unmarked
    else
      match Bytes.unsafe_get c.c_color off with
      | '\000' -> Unmarked
      | '\001' -> Transient
      | _ -> Marked

  let set_color_at c off col =
    materialize c off;
    Bytes.unsafe_set c.c_color off
      (match col with Unmarked -> '\000' | Transient -> '\001' | Marked -> '\002')

  let cnt_at c off = if live c off then Array.unsafe_get c.c_cnt off else 0

  let set_cnt_at c off n =
    materialize c off;
    Array.unsafe_set c.c_cnt off n

  let par_vid_at c off = if live c off then Array.unsafe_get c.c_par off else -1

  let set_par_vid_at c off v =
    materialize c off;
    Array.unsafe_set c.c_par off v

  let prior_at c off = if live c off then Array.unsafe_get c.c_prior off else 0

  let set_prior_at c off p =
    materialize c off;
    Array.unsafe_set c.c_prior off p

  let unmarked_at c off = (not (live c off)) || Bytes.unsafe_get c.c_color off = '\000'

  let transient_at c off = live c off && Bytes.unsafe_get c.c_color off = '\001'

  let marked_at c off = live c off && Bytes.unsafe_get c.c_color off = '\002'

  let color t = color_at t.c t.off

  let set_color t col = set_color_at t.c t.off col

  let cnt t = cnt_at t.c t.off

  let set_cnt t n = set_cnt_at t.c t.off n

  let parent_of_vid v = if v < 0 then Rootpar else Parent v

  let vid_of_parent = function Rootpar -> -1 | Parent v -> v

  let par_vid t = par_vid_at t.c t.off

  let set_par_vid t v = set_par_vid_at t.c t.off v

  let par t = parent_of_vid (par_vid t)

  let prior t = prior_at t.c t.off

  let set_prior t p = set_prior_at t.c t.off p

  (* Per-slot reset: mark the slot stale, which IS the pristine state. *)
  let reset t = Array.unsafe_set t.c.c_epoch t.off 0

  let unmarked t = unmarked_at t.c t.off

  let transient t = transient_at t.c t.off

  let marked t = marked_at t.c t.off

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
end

type requester = Vid.t option

type request_entry = { who : requester; demand : Demand.t; key : Vid.t }

(* Struct-of-arrays vertex storage. The fixed-width per-vertex state
   (label, pe, free, birth, sched_prior, and the two marking planes)
   lives in parallel columns, one column set per storage chunk; chunks
   never move once allocated (see [Graph.Seg]), so handles can cache the
   column arrays directly and a concurrent reader can never observe a
   half-copied backing store.

   The variable-width state — args, the two req-args sets, the requester
   table and the received-values table — is paged: each slot owns flat
   int rows that grow by doubling and are *recycled with the slot* (the
   free list returns the slot with its row capacity intact), so steady
   state churn allocates nothing.

   Row order conventions (these encode the exact semantics of the old
   list representation, which the golden traces depend on):
   - [args] rows are kept in append order — identical to the old
     normalized [fwd @ rev rtail] order; removal takes the *first*
     occurrence and compacts in place.
   - [req_v]/[req_e]/[requested]/[recv] rows are kept in append order
     but *viewed newest-first* (the old lists prepended), so list views
     and iterators walk the rows backwards. In-place filters compact
     without reordering, matching [List.filter] on the old lists. *)
type cols = {
  label : Label.t array;
  pe : int array;
  birth : int array;
  sprior : int array;
  (* seed-stamp: the Graph wave number that last added this vertex to an
     M_T seed set. Compared against the graph's current wave for O(1)
     per-wave dedup of the per-PE taskroot construction; deliberately
     excluded from checkpoints — the wave counter never decreases, so a
     stale stamp can only cause a harmless re-seed, never a miss. *)
  stamp : int array;
  free : Bytes.t;
  mrc : Plane.cols;
  mtc : Plane.cols;
}

type t = {
  id : Vid.t;
  c : cols;
  off : int;
  mr : Plane.t;
  mt : Plane.t;
  (* args: ordered data-dependency children, append order *)
  mutable args_a : int array;
  mutable args_n : int;
  (* req-args_v / req-args_e: disjoint subsets of args, append order *)
  mutable reqv_a : int array;
  mutable reqv_n : int;
  mutable reqe_a : int array;
  mutable reqe_n : int;
  (* requested: stride-3 triples [who; demand; key], who = -1 for the
     external requester, demand = 0 eager / 1 vital; rq_n counts entries *)
  mutable rq_a : int array;
  mutable rq_n : int;
  (* recv: from-vids with a parallel array of received values *)
  mutable recv_a : int array;
  mutable recv_n : int;
  mutable recv_v : Label.value array;
}

let make_cols n =
  {
    label = Array.make n Label.Freed;
    pe = Array.make n 0;
    birth = Array.make n 0;
    sprior = Array.make n 0;
    stamp = Array.make n 0;
    free = Bytes.make n '\000';
    mrc = Plane.make_cols n;
    mtc = Plane.make_cols n;
  }

let empty_cols = make_cols 0

let reset_plane_cols c = function
  | Plane.MR -> Plane.reset_cols c.mrc
  | Plane.MT -> Plane.reset_cols c.mtc

let empty_row = [||]

let attach id ~off c ~pe label =
  c.label.(off) <- label;
  c.pe.(off) <- pe;
  c.birth.(off) <- 0;
  c.sprior.(off) <- 0;
  c.stamp.(off) <- 0;
  Bytes.set c.free off '\000';
  {
    id;
    c;
    off;
    mr = Plane.handle c.mrc off;
    mt = Plane.handle c.mtc off;
    args_a = empty_row;
    args_n = 0;
    reqv_a = empty_row;
    reqv_n = 0;
    reqe_a = empty_row;
    reqe_n = 0;
    rq_a = empty_row;
    rq_n = 0;
    recv_a = empty_row;
    recv_n = 0;
    recv_v = [||];
  }

let create id ~pe label = attach id ~off:0 (make_cols 1) ~pe label

(* --- scalar columns --------------------------------------------------- *)

let id t = t.id

let label t = Array.unsafe_get t.c.label t.off

let set_label t l = Array.unsafe_set t.c.label t.off l

let pe_at c off = Array.unsafe_get c.pe off

let pe t = pe_at t.c t.off

let set_pe t p = Array.unsafe_set t.c.pe t.off p

let birth t = Array.unsafe_get t.c.birth t.off

let set_birth t b = Array.unsafe_set t.c.birth t.off b

let free t = Bytes.unsafe_get t.c.free t.off <> '\000'

let set_free t b = Bytes.unsafe_set t.c.free t.off (if b then '\001' else '\000')

let sched_prior t = Array.unsafe_get t.c.sprior t.off

let set_sched_prior t p = Array.unsafe_set t.c.sprior t.off p

let seed_stamp t = Array.unsafe_get t.c.stamp t.off

let set_seed_stamp t s = Array.unsafe_set t.c.stamp t.off s

let mr t = t.mr

let mt t = t.mt

let plane t = function Plane.MR -> t.mr | Plane.MT -> t.mt

(* --- row plumbing ----------------------------------------------------- *)

(* Return a row with index [n] writable, doubling (and copying the live
   prefix) when the current capacity is exhausted. *)
let grown a n =
  let cap = Array.length a in
  if n < cap then a
  else begin
    let a' = Array.make (Int.max 4 (Int.max (n + 1) (2 * cap))) 0 in
    Array.blit a 0 a' 0 cap;
    a'
  end

(* Top-level, every argument passed: a local [scan] closing over the row
   would be a heap closure per call, and the marking handlers ask this
   once or twice per traced child. *)
let rec row_mem_from a n c i =
  i < n && (Vid.equal (Array.unsafe_get a i) c || row_mem_from a n c (i + 1))

let row_mem a n c = row_mem_from a n c 0

(* Drop every occurrence of [c], compacting in place; returns the new
   length. Preserves the order of the survivors. *)
let row_remove_all a n c =
  let j = ref 0 in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get a i in
    if not (Vid.equal x c) then begin
      Array.unsafe_set a !j x;
      incr j
    end
  done;
  !j

(* --- args ------------------------------------------------------------- *)

let connect t c =
  t.args_a <- grown t.args_a t.args_n;
  Array.unsafe_set t.args_a t.args_n c;
  t.args_n <- t.args_n + 1

let has_arg t c = row_mem t.args_a t.args_n c

let arg_count t = t.args_n

let arg t i =
  if i < 0 || i >= t.args_n then invalid_arg "Vertex.arg: index out of bounds";
  t.args_a.(i)

let iter_args t f =
  for i = 0 to t.args_n - 1 do
    f (Array.unsafe_get t.args_a i)
  done

let args t =
  let rec build i acc = if i < 0 then acc else build (i - 1) (t.args_a.(i) :: acc) in
  build (t.args_n - 1) []

let set_args t l =
  t.args_n <- 0;
  List.iter (connect t) l

let disconnect t c =
  (* remove the first occurrence of [c] *)
  let n = t.args_n in
  let i = ref 0 in
  while !i < n && not (Vid.equal t.args_a.(!i) c) do
    incr i
  done;
  if !i < n then begin
    Array.blit t.args_a (!i + 1) t.args_a !i (n - !i - 1);
    t.args_n <- n - 1
  end;
  (* req-args must remain subsets of args: drop the request record only if
     no occurrence of [c] remains among the args. *)
  if not (has_arg t c) then begin
    t.reqv_n <- row_remove_all t.reqv_a t.reqv_n c;
    t.reqe_n <- row_remove_all t.reqe_a t.reqe_n c
  end

(* --- req-args --------------------------------------------------------- *)

let req_v t =
  let acc = ref [] in
  for i = 0 to t.reqv_n - 1 do
    acc := t.reqv_a.(i) :: !acc
  done;
  !acc

let req_e t =
  let acc = ref [] in
  for i = 0 to t.reqe_n - 1 do
    acc := t.reqe_a.(i) :: !acc
  done;
  !acc

let req_args t = req_v t @ req_e t

let req_count t = t.reqv_n + t.reqe_n

let is_req_arg t c = row_mem t.reqv_a t.reqv_n c || row_mem t.reqe_a t.reqe_n c

let unrequested_args t =
  let acc = ref [] in
  for i = t.args_n - 1 downto 0 do
    let c = t.args_a.(i) in
    if not (is_req_arg t c) then acc := c :: !acc
  done;
  !acc

let request_arg t c demand =
  let in_v = row_mem t.reqv_a t.reqv_n c in
  let in_e = row_mem t.reqe_a t.reqe_n c in
  match demand with
  | Demand.Vital ->
    if not in_v then begin
      t.reqv_a <- grown t.reqv_a t.reqv_n;
      t.reqv_a.(t.reqv_n) <- c;
      t.reqv_n <- t.reqv_n + 1;
      if in_e then t.reqe_n <- row_remove_all t.reqe_a t.reqe_n c
    end
  | Demand.Eager ->
    if (not in_v) && not in_e then begin
      t.reqe_a <- grown t.reqe_a t.reqe_n;
      t.reqe_a.(t.reqe_n) <- c;
      t.reqe_n <- t.reqe_n + 1
    end

let drop_request t c =
  t.reqv_n <- row_remove_all t.reqv_a t.reqv_n c;
  t.reqe_n <- row_remove_all t.reqe_a t.reqe_n c

let request_type t c =
  if row_mem t.reqv_a t.reqv_n c then 3 else if row_mem t.reqe_a t.reqe_n c then 2 else 1

(* --- requested -------------------------------------------------------- *)

let who_code = function None -> -1 | Some v -> v

let who_of_code w = if w < 0 then None else Some w

let demand_code = function Demand.Eager -> 0 | Demand.Vital -> 1

let demand_of_code d = if d = 0 then Demand.Eager else Demand.Vital

let requested_count t = t.rq_n

let requested t =
  let acc = ref [] in
  for i = 0 to t.rq_n - 1 do
    acc :=
      {
        who = who_of_code t.rq_a.(3 * i);
        demand = demand_of_code t.rq_a.((3 * i) + 1);
        key = t.rq_a.((3 * i) + 2);
      }
      :: !acc
  done;
  !acc

let blit_requests t dst =
  Array.blit t.rq_a 0 dst 0 (3 * t.rq_n);
  t.rq_n

let requester t i =
  if i < 0 || i >= t.rq_n then invalid_arg "Vertex.requester: index out of bounds";
  Array.unsafe_get t.rq_a (3 * i)

let add_requester t r ~demand ~key =
  let w = who_code r in
  let found = ref false in
  for i = 0 to t.rq_n - 1 do
    if t.rq_a.(3 * i) = w && Vid.equal t.rq_a.((3 * i) + 2) key then begin
      found := true;
      (* a vital request upgrades an existing eager entry; never downgrades *)
      if demand_code demand = 1 then t.rq_a.((3 * i) + 1) <- 1
    end
  done;
  if not !found then begin
    t.rq_a <- grown t.rq_a ((3 * t.rq_n) + 2);
    t.rq_a.(3 * t.rq_n) <- w;
    t.rq_a.((3 * t.rq_n) + 1) <- demand_code demand;
    t.rq_a.((3 * t.rq_n) + 2) <- key;
    t.rq_n <- t.rq_n + 1
  end

let rq_filter t keep =
  let j = ref 0 in
  for i = 0 to t.rq_n - 1 do
    if keep t.rq_a.(3 * i) t.rq_a.((3 * i) + 1) t.rq_a.((3 * i) + 2) then begin
      if !j < i then begin
        t.rq_a.(3 * !j) <- t.rq_a.(3 * i);
        t.rq_a.((3 * !j) + 1) <- t.rq_a.((3 * i) + 1);
        t.rq_a.((3 * !j) + 2) <- t.rq_a.((3 * i) + 2)
      end;
      incr j
    end
  done;
  t.rq_n <- !j

let remove_requester t r =
  let w = who_code r in
  rq_filter t (fun w' _ _ -> w' <> w)

let retain_requesters t keep = rq_filter t (fun w _ _ -> w < 0 || keep w)

let has_requester t r =
  let w = who_code r in
  let rec scan i = i < t.rq_n && (t.rq_a.(3 * i) = w || scan (i + 1)) in
  scan 0

let has_request_entry t r key =
  let w = who_code r in
  let rec scan i =
    i < t.rq_n && ((t.rq_a.(3 * i) = w && Vid.equal t.rq_a.((3 * i) + 2) key) || scan (i + 1))
  in
  scan 0

let clear_requesters t = t.rq_n <- 0

let has_vital_requester t =
  let rec scan i = i < t.rq_n && (t.rq_a.((3 * i) + 1) = 1 || scan (i + 1)) in
  scan 0

(* --- recv ------------------------------------------------------------- *)

let record_value t ~from value =
  if not (row_mem t.recv_a t.recv_n from) then begin
    t.recv_a <- grown t.recv_a t.recv_n;
    (if Array.length t.recv_v < Array.length t.recv_a then begin
       let v' = Array.make (Array.length t.recv_a) Label.V_nil in
       Array.blit t.recv_v 0 v' 0 t.recv_n;
       t.recv_v <- v'
     end);
    t.recv_a.(t.recv_n) <- from;
    t.recv_v.(t.recv_n) <- value;
    t.recv_n <- t.recv_n + 1
  end

let value_from t c =
  let rec scan i =
    if i >= t.recv_n then None
    else if Vid.equal t.recv_a.(i) c then Some t.recv_v.(i)
    else scan (i + 1)
  in
  scan 0

let has_value t c = row_mem t.recv_a t.recv_n c

let recv t =
  let acc = ref [] in
  for i = 0 to t.recv_n - 1 do
    acc := (t.recv_a.(i), t.recv_v.(i)) :: !acc
  done;
  !acc

let clear_reduction_state t = t.recv_n <- 0

(* --- traced children ---------------------------------------------- *)

(* Slot [i] of a plane's relation. M_R: the args. M_T: the requesters
   newest-first, then the args, an arg that is a req-arg standing empty.
   Every visit order of a traced relation is this one. *)
let child_slots t pid =
  if free t then 0
  else match pid with Plane.MR -> t.args_n | Plane.MT -> t.rq_n + t.args_n

let child_at t pid i =
  match pid with
  | Plane.MR -> arg t i
  | Plane.MT ->
    let r = t.rq_n in
    if i < r then requester t (r - 1 - i)
    else
      let c = arg t (i - r) in
      if is_req_arg t c then -1 else c

(* min(prior, request-type(c, t)) (Fig 5-1). A priority-less mark (prior
   0) skips the request-type scan: the minimum is 0 either way. *)
let child_priority t prior c = if prior = 0 then 0 else Int.min prior (request_type t c)

(* --- marking transitions (Figs 4-1, 5-1, 5-3; §6) -------------------- *)

(* Emit one mark per traced child, in slot order: [emit c par m], where
   [m] is [metas.(child_priority t prior c)] — the handler's child mark
   metas indexed by priority. With [charge] each child is first counted
   on [p]'s mt-cnt. Returns the number emitted. *)
let spawn_children t pid pc ~charge ~prior ~par ~metas ~(emit : int -> int -> int -> unit) =
  let off = t.off in
  let n = ref 0 in
  for i = 0 to child_slots t pid - 1 do
    let c = child_at t pid i in
    if c >= 0 then begin
      if charge then Plane.set_cnt_at pc off (Plane.cnt_at pc off + 1);
      incr n;
      emit c par metas.(child_priority t prior c)
    end
  done;
  !n

(* The plane's columns for [t]'s chunk; the slot is [t.off]. *)
let plane_cols t = function Plane.MR -> t.c.mrc | Plane.MT -> t.c.mtc

(* mark1/mark3 (prior 0, Figs 4-1 and 5-3) and mark2 (prior 1-3,
   Fig 5-1). A free target degenerates to an immediate return; so does a
   vertex already traced at this priority or higher, which for prior 0
   is any vertex not unmarked. Otherwise mark2's [modify]: a transient
   vertex re-marked at a higher priority first releases its current
   parent (the children of its previous visit still credit its count),
   then the vertex turns transient under [par], takes the priority and
   spawns its children; with none charged it is marked at once and owes
   [par] its return. *)
let mark_tree t pid ~par ~prior ~metas ~ret ~emit =
  let pc = plane_cols t pid and off = t.off in
  if free t || ((not (Plane.unmarked_at pc off)) && prior <= Plane.prior_at pc off) then
    emit (-1) par ret
  else begin
    if Plane.transient_at pc off then emit (-1) (Plane.par_vid_at pc off) ret;
    Plane.set_color_at pc off Plane.Transient;
    Plane.set_par_vid_at pc off par;
    if prior > 0 then Plane.set_prior_at pc off prior;
    let (_ : int) = spawn_children t pid pc ~charge:true ~prior ~par:t.id ~metas ~emit in
    if Plane.cnt_at pc off = 0 then begin
      Plane.set_color_at pc off Plane.Marked;
      emit (-1) par ret
    end
  end

(* return1 (Fig 4-1), at a non-root parent: the last outstanding child's
   return marks the vertex and passes a return to its own parent. *)
let return_tree t pid ~ret ~emit =
  let pc = plane_cols t pid and off = t.off in
  let n = Plane.cnt_at pc off in
  if n <= 0 then
    invalid_arg (Format.asprintf "Vertex.return_tree: %a has mt-cnt=0" Vid.pp t.id);
  Plane.set_cnt_at pc off (n - 1);
  if n = 1 then begin
    Plane.set_color_at pc off Plane.Marked;
    emit (-1) (Plane.par_vid_at pc off) ret
  end

(* The flood visit (§6): a live vertex not yet marked at [prior] or
   higher is marked (taking a nonzero priority) and floods its children
   with parent lane -1. Returns the number of marks spawned, or -1 when
   the visit changed nothing. *)
let mark_flood t pid ~prior ~metas ~emit =
  let pc = plane_cols t pid and off = t.off in
  if free t || (Plane.marked_at pc off && prior <= Plane.prior_at pc off) then -1
  else begin
    Plane.set_color_at pc off Plane.Marked;
    if prior > 0 then Plane.set_prior_at pc off prior;
    spawn_children t pid pc ~charge:false ~prior ~par:(-1) ~metas ~emit
  end

(* --- lifecycle -------------------------------------------------------- *)

let reset_for_free t =
  set_label t Label.Freed;
  t.args_n <- 0;
  t.reqv_n <- 0;
  t.reqe_n <- 0;
  t.rq_n <- 0;
  t.recv_n <- 0;
  set_free t true;
  set_sched_prior t 0;
  Plane.reset t.mr;
  Plane.reset t.mt

(* --- checkpointing ---------------------------------------------------- *)

(* A flat boxed copy of one slot's full state; the checkpoint layer
   compares and restores through this so it never sees the row layout. *)
module Cells = struct
  (* Row arrays are sized exactly to the captured prefix ([matches] and
     [restore] take Array.length as the row length), and fields are
     mutable so [recapture] can refresh a stale shot in place. *)
  type shot = {
    mutable s_label : Label.t;
    mutable s_pe : int;
    mutable s_free : bool;
    mutable s_birth : int;
    mutable s_sprior : int;
    mutable s_args : int array;
    mutable s_reqv : int array;
    mutable s_reqe : int array;
    mutable s_rq : int array;
    mutable s_recv : int array;
    mutable s_recv_v : Label.value array;
    s_mr : Plane.shot;
    s_mt : Plane.shot;
  }

  let capture t =
    {
      s_label = label t;
      s_pe = pe t;
      s_free = free t;
      s_birth = birth t;
      s_sprior = sched_prior t;
      s_args = Array.sub t.args_a 0 t.args_n;
      s_reqv = Array.sub t.reqv_a 0 t.reqv_n;
      s_reqe = Array.sub t.reqe_a 0 t.reqe_n;
      s_rq = Array.sub t.rq_a 0 (3 * t.rq_n);
      s_recv = Array.sub t.recv_a 0 t.recv_n;
      s_recv_v = Array.sub t.recv_v 0 t.recv_n;
      s_mr = Plane.capture t.mr;
      s_mt = Plane.capture t.mt;
    }

  (* Refresh one captured row: reuse the shot's array when the live
     prefix has the same length (the common case — most churn rewrites
     values, not arity), else size a fresh exact-length copy. *)
  let cap_row s a n =
    if Array.length s = n then begin
      Array.blit a 0 s 0 n;
      s
    end
    else Array.sub a 0 n

  let recapture s t =
    s.s_label <- label t;
    s.s_pe <- pe t;
    s.s_free <- free t;
    s.s_birth <- birth t;
    s.s_sprior <- sched_prior t;
    s.s_args <- cap_row s.s_args t.args_a t.args_n;
    s.s_reqv <- cap_row s.s_reqv t.reqv_a t.reqv_n;
    s.s_reqe <- cap_row s.s_reqe t.reqe_a t.reqe_n;
    s.s_rq <- cap_row s.s_rq t.rq_a (3 * t.rq_n);
    s.s_recv <- cap_row s.s_recv t.recv_a t.recv_n;
    (s.s_recv_v <-
       (if Array.length s.s_recv_v = t.recv_n then begin
          Array.blit t.recv_v 0 s.s_recv_v 0 t.recv_n;
          s.s_recv_v
        end
        else Array.sub t.recv_v 0 t.recv_n));
    Plane.recapture s.s_mr t.mr;
    Plane.recapture s.s_mt t.mt

  (* Loop-based row comparisons: [matches] runs for every checkpointed
     slot on every sync, so the scans are plain while-loops (a nested
     [let rec] would allocate its closure per row per call). *)
  let row_matches s a n =
    Array.length s = n
    &&
    begin
      let i = ref 0 in
      while !i < n && s.(!i) = Array.unsafe_get a !i do
        incr i
      done;
      !i >= n
    end

  let matches s t =
    Label.equal s.s_label (label t)
    && s.s_pe = pe t && s.s_free = free t && s.s_birth = birth t
    && s.s_sprior = sched_prior t
    && Plane.matches s.s_mr t.mr && Plane.matches s.s_mt t.mt
    && row_matches s.s_args t.args_a t.args_n
    && row_matches s.s_reqv t.reqv_a t.reqv_n
    && row_matches s.s_reqe t.reqe_a t.reqe_n
    && row_matches s.s_rq t.rq_a (3 * t.rq_n)
    && row_matches s.s_recv t.recv_a t.recv_n
    &&
    begin
      let i = ref 0 in
      while !i < t.recv_n && Label.equal_value s.s_recv_v.(!i) t.recv_v.(!i) do
        incr i
      done;
      !i >= t.recv_n
    end

  let restore_row t a n =
    let dst = if Array.length a >= n then a else Array.make (Int.max 4 n) 0 in
    Array.blit t 0 dst 0 n;
    dst

  let restore s t =
    set_label t s.s_label;
    set_pe t s.s_pe;
    set_free t s.s_free;
    set_birth t s.s_birth;
    set_sched_prior t s.s_sprior;
    t.args_a <- restore_row s.s_args t.args_a (Array.length s.s_args);
    t.args_n <- Array.length s.s_args;
    t.reqv_a <- restore_row s.s_reqv t.reqv_a (Array.length s.s_reqv);
    t.reqv_n <- Array.length s.s_reqv;
    t.reqe_a <- restore_row s.s_reqe t.reqe_a (Array.length s.s_reqe);
    t.reqe_n <- Array.length s.s_reqe;
    t.rq_a <- restore_row s.s_rq t.rq_a (Array.length s.s_rq);
    t.rq_n <- Array.length s.s_rq / 3;
    t.recv_a <- restore_row s.s_recv t.recv_a (Array.length s.s_recv);
    t.recv_n <- Array.length s.s_recv;
    (if Array.length t.recv_v < t.recv_n then t.recv_v <- Array.make (Int.max 4 t.recv_n) Label.V_nil);
    Array.blit s.s_recv_v 0 t.recv_v 0 t.recv_n;
    Plane.restore s.s_mr t.mr;
    Plane.restore s.s_mt t.mt
end

(* --- introspection (tests) -------------------------------------------- *)

let args_capacity t = Array.length t.args_a

let pp fmt t =
  let pp_vids = Fmt.(list ~sep:comma Vid.pp) in
  Format.fprintf fmt "@[<h>%a[%a] pe=%d args=[%a] req_v=[%a] req_e=[%a] requested=%d%s@]"
    Vid.pp t.id Label.pp (label t) (pe t) pp_vids (args t) pp_vids (req_v t) pp_vids
    (req_e t) t.rq_n
    (if free t then " FREE" else "")
