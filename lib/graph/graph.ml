open Dgr_util

exception Out_of_vertices

(* A segment: append-only vertex storage in fixed chunks of [size]
   slots. Slot [i] lives at offset [i land mask] of chunk [i lsr bits], so
   a lookup is two array reads. A chunk, once allocated, never moves, so
   a vertex handle, which caches its chunk's columns, stays valid however
   the segment grows; only the chunk directory grows, by doubling, and
   nothing caches the directory. Single writer per segment, and every
   reader runs on the writer's domain (shards run inline), so a
   directory swap is never seen half-made. A fresh vid only escapes its
   allocating PE via a message, which takes a step, so no other PE reads
   a slot in the step it was pushed.

   Each chunk owns a struct-of-arrays column set ([Vertex.cols]) holding
   the fixed-width per-vertex state; the handle directory is parallel to
   it. Columns obey the same no-move discipline as the handles. *)
module Seg = struct
  type t = {
    mutable chunks : Vertex.t array array;
    mutable cols : Vertex.cols array;
    mutable pes : int array array;  (* each chunk's PE column *)
    mutable len : int;
  }

  let bits = 9

  let size = 1 lsl bits

  let mask = size - 1

  let create () = { chunks = [||]; cols = [||]; pes = [||]; len = 0 }

  let length t = t.len

  let get t i = Array.unsafe_get (Array.unsafe_get t.chunks (i lsr bits)) (i land mask)

  (* The slot's PE, read from the chunk's column: the handle itself is
     never loaded. *)
  let pe t i = Array.unsafe_get (Array.unsafe_get t.pes (i lsr bits)) (i land mask)

  let dummy = lazy (Vertex.create (-1) ~pe:(-1) Label.Freed)

  (* Append a fresh slot, materializing its chunk (handles + columns) on
     first touch and doubling the directory when it is full, and return
     its handle. *)
  let alloc t id ~pe label =
    let j = t.len lsr bits and off = t.len land mask in
    if off = 0 then begin
      let n = Array.length t.chunks in
      if j = n then begin
        let n' = Int.max 4 (2 * n) in
        let chunks = Array.make n' [||] and cols = Array.make n' Vertex.empty_cols in
        let pes = Array.make n' [||] in
        Array.blit t.chunks 0 chunks 0 n;
        Array.blit t.cols 0 cols 0 n;
        Array.blit t.pes 0 pes 0 n;
        t.chunks <- chunks;
        t.cols <- cols;
        t.pes <- pes
      end;
      let c = Vertex.make_cols size in
      t.cols.(j) <- c;
      t.pes.(j) <- Vertex.pe_column c;
      t.chunks.(j) <- Array.make size (Lazy.force dummy)
    end;
    let v = Vertex.attach id ~off t.cols.(j) ~pe label in
    t.chunks.(j).(off) <- v;
    t.len <- t.len + 1;
    v

  let iter f t =
    for i = 0 to t.len - 1 do
      f (get t i)
    done

  (* Bulk plane reset, one column fill per materialized chunk. Slots past
     [len] are pristine already, so whole-chunk fills are equivalent to
     per-slot resets. *)
  let reset_plane t plane =
    for j = 0 to ((t.len + mask) lsr bits) - 1 do
      Vertex.reset_plane_cols t.cols.(j) plane
    done
end

(* Partitioned storage, installed by [partition] once the graph stops
   growing densely (i.e. when an engine takes ownership). Each home PE
   gets its own free list, its own segment of fresh slots, and its own
   slice of the capacity budget, so one PE's allocations never touch
   another's structures, and a PE's vids do not depend on what the
   others allocated in the same step. Fresh vids are striped
   — home [h]'s [k]-th fresh slot is [base + k*pes + h] — which keeps the
   vid space dense and makes vid-order iteration (the digest order)
   independent of which PE allocated what first. *)
type part = {
  pes : int;
  base : int;  (** dense-prefix length at partition time *)
  segs : Seg.t array;
  frees : Vid.t Vec.t array;
  shares : int array;  (** per-home slot budget; [max_int] = unbounded *)
  dense_counts : int array;  (** dense-prefix slots owned by each home *)
}

type t = {
  dense : Seg.t;
  free : Vid.t Vec.t;
  mutable num_pes : int;
  mutable root : Vid.t option;
  mutable next_pe : int;
  mutable releases : int;
  mutable capacity : int option;
  mutable part : part option;
  mutable epoch : int;
  mutable wave : int;
  (* Running counts, so [live_count] and [headroom] cost O(1) where a
     fold over the homes would cost O(pes) on every step: *)
  mutable n_slots : int;  (* |V|: every slot of every segment *)
  mutable n_free : int;  (* |F|: every free list's length *)
  mutable slack : int;
      (* partitioned and bounded: the homes' unused budget,
         [sum over h of max 0 (share h - used h)] *)
}

let create ?(num_pes = 1) () =
  if num_pes <= 0 then invalid_arg "Graph.create: num_pes must be positive";
  {
    dense = Seg.create ();
    free = Vec.create ();
    num_pes;
    root = None;
    next_pe = 0;
    releases = 0;
    capacity = None;
    part = None;
    epoch = 0;
    wave = 0;
    n_slots = 0;
    n_free = 0;
    slack = 0;
  }

let vertex_count t = t.n_slots

let share_of cap pes h = (cap / pes) + if h < cap mod pes then 1 else 0

let used_of p h = p.dense_counts.(h) + Seg.length p.segs.(h)

let unused p h = if p.shares.(h) = max_int then 0 else Int.max 0 (p.shares.(h) - used_of p h)

(* Recount [slack] from the shares: only when they change. *)
let recount_slack t =
  match t.part with
  | None -> ()
  | Some p ->
    t.slack <- 0;
    for h = 0 to p.pes - 1 do
      t.slack <- t.slack + unused p h
    done

(* Append a fresh slot to home [h]'s segment, keeping the counts. *)
let seg_alloc t p h id ~pe label =
  if unused p h > 0 then t.slack <- t.slack - 1;
  t.n_slots <- t.n_slots + 1;
  Seg.alloc p.segs.(h) id ~pe label

let set_capacity t cap =
  (match cap with
  | Some c when c < vertex_count t ->
    invalid_arg "Graph.set_capacity: below current table size"
  | Some _ | None -> ());
  t.capacity <- cap;
  match t.part with
  | None -> ()
  | Some p ->
    Array.iteri
      (fun h _ ->
        p.shares.(h) <-
          (match cap with None -> max_int | Some c -> share_of c p.pes h))
      p.shares;
    recount_slack t

let capacity t = t.capacity

let partitioned t = t.part <> None

let partition t ~pes =
  if pes <= 0 then invalid_arg "Graph.partition: pes must be positive";
  if t.part <> None then invalid_arg "Graph.partition: already partitioned";
  t.num_pes <- pes;
  let base = Seg.length t.dense in
  let dense_counts = Array.init pes (fun h -> share_of base pes h) in
  let shares =
    match t.capacity with
    | None -> Array.make pes max_int
    | Some c -> Array.init pes (fun h -> share_of c pes h)
  in
  let frees = Array.init pes (fun _ -> Vec.create ()) in
  Vec.iter (fun id -> Vec.push frees.(id mod pes) id) t.free;
  Vec.clear t.free;
  t.part <-
    Some
      {
        pes;
        base;
        segs = Array.init pes (fun _ -> Seg.create ());
        frees;
        shares;
        dense_counts;
      };
  recount_slack t

let home_of p v = if v < p.base then v mod p.pes else (v - p.base) mod p.pes

let headroom_for t ~pe =
  match t.part with
  | None -> (
    match t.capacity with
    | None -> max_int
    | Some c -> Vec.length t.free + (c - Seg.length t.dense))
  | Some p ->
    let h = ((pe mod p.pes) + p.pes) mod p.pes in
    if p.shares.(h) = max_int then max_int
    else Vec.length p.frees.(h) + Int.max 0 (p.shares.(h) - used_of p h)

(* Every home's [headroom_for], summed: the free slots plus the homes'
   unused budget, both kept as running counts. *)
let headroom t =
  match t.part with
  | None -> (
    match t.capacity with
    | None -> max_int
    | Some c -> Vec.length t.free + (c - Seg.length t.dense))
  | Some _ -> if t.capacity = None then max_int else t.n_free + t.slack

let num_pes t = t.num_pes

let epoch t = t.epoch

let bump_epoch t = t.epoch <- t.epoch + 1

let root t =
  match t.root with
  | Some r -> r
  | None -> invalid_arg "Graph.root: no root set"

let has_root t = t.root <> None

let set_root t r = t.root <- Some r

let unknown v = invalid_arg (Printf.sprintf "Graph.vertex: unknown vertex v%d" v)

(* A partitioned vid [v >= base] is slot [k] of home [h]'s segment, with
   [v - base = k * pes + h]: one division, no [mod]. *)
let mem t v =
  v >= 0
  &&
  if v < t.dense.Seg.len then true
  else
    match t.part with
    | None -> false
    | Some p ->
      let off = v - p.base in
      off >= 0
      &&
      let k = off / p.pes in
      k < p.segs.(off - (k * p.pes)).Seg.len

(* The segment [vertex] and [pe] read, spelled out in each so that the
   slot read is a direct array access, not a call through a function
   argument. *)
let vertex t v =
  if v >= 0 && v < t.dense.Seg.len then Seg.get t.dense v
  else
    match t.part with
    | Some p when v >= p.base ->
      let off = v - p.base in
      let k = off / p.pes in
      let s = p.segs.(off - (k * p.pes)) in
      if k < s.Seg.len then Seg.get s k else unknown v
    | Some _ | None -> unknown v

(* Vid-keyed scalar accessors: one slot lookup, no allocation. *)
let label t v = Vertex.label (vertex t v)

let is_free t v = Vertex.free (vertex t v)

let sched_prior t v = Vertex.sched_prior (vertex t v)

let pe t v =
  if v >= 0 && v < t.dense.Seg.len then Seg.pe t.dense v
  else
    match t.part with
    | Some p when v >= p.base ->
      let off = v - p.base in
      let k = off / p.pes in
      let s = p.segs.(off - (k * p.pes)) in
      if k < s.Seg.len then Seg.pe s k else unknown v
    | Some _ | None -> unknown v

let gen t v = if mem t v then Vertex.gen (vertex t v) else 0

let next_pe t =
  let pe = t.next_pe in
  t.next_pe <- (t.next_pe + 1) mod t.num_pes;
  pe

let fresh t ~pe label =
  t.n_slots <- t.n_slots + 1;
  Seg.alloc t.dense (Seg.length t.dense) ~pe label

let reuse t v ~pe label =
  let vx = vertex t v in
  Vertex.set_label vx label;
  Vertex.set_free vx false;
  Vertex.set_pe vx pe;
  Vertex.set_birth vx t.epoch;
  vx

(* The last free vid, or -1 with the list empty: [Vec.pop]'s option
   would be a heap block per allocation. *)
let pop_free t free =
  let n = Vec.length free in
  if n = 0 then -1
  else begin
    let id = Vec.get free (n - 1) in
    Vec.truncate free (n - 1);
    t.n_free <- t.n_free - 1;
    id
  end

(* [alloc] with its PEs as ints, [-1] for absent: an optional argument
   passed across modules is boxed at every call. *)
let alloc_at t ~pe ~from label =
  match t.part with
  | None ->
    let pe = if pe >= 0 then pe else next_pe t in
    let id = pop_free t t.free in
    if id >= 0 then reuse t id ~pe label
    else begin
      (match t.capacity with
      | Some c when Seg.length t.dense >= c -> raise Out_of_vertices
      | Some _ | None -> ());
      let v = fresh t ~pe label in
      Vertex.set_birth v t.epoch;
      v
    end
  | Some p ->
    (* Partitioned: every structure touched below belongs to [home]. *)
    let home = if from >= 0 then from mod p.pes else if pe >= 0 then pe mod p.pes else 0 in
    let pe = if pe >= 0 then pe else home in
    let id = pop_free t p.frees.(home) in
    if id >= 0 then reuse t id ~pe label
    else begin
      if p.shares.(home) <> max_int && used_of p home >= p.shares.(home) then
        raise Out_of_vertices;
      let k = Seg.length p.segs.(home) in
      let id = p.base + (k * p.pes) + home in
      let v = seg_alloc t p home id ~pe label in
      Vertex.set_birth v t.epoch;
      v
    end

let alloc ?(pe = -1) ?(from = -1) t label = alloc_at t ~pe ~from label

let alloc_from t ~from label = alloc_at t ~pe:(-1) ~from label

let release t id =
  let v = vertex t id in
  if Vertex.free v then invalid_arg (Printf.sprintf "Graph.release: v%d already free" id);
  t.releases <- t.releases + 1;
  Vertex.reset_for_free v;
  Vertex.set_gen v t.releases;
  t.n_free <- t.n_free + 1;
  match t.part with
  | None -> Vec.push t.free id
  | Some p -> Vec.push p.frees.(home_of p id) id

let preallocate t n =
  if t.part <> None then invalid_arg "Graph.preallocate: graph is partitioned";
  for _ = 1 to n do
    let v = fresh t ~pe:(next_pe t) Label.Freed in
    Vertex.set_free v true;
    Vec.push t.free (Vertex.id v);
    t.n_free <- t.n_free + 1
  done

let children t v = Vertex.args (vertex t v)

let iter_children t v f = Vertex.iter_args (vertex t v) f

let free_count t = t.n_free

let live_count t = t.n_slots - t.n_free

let free_list t =
  Vec.to_list t.free
  @ match t.part with
    | None -> []
    | Some p -> List.concat_map Vec.to_list (Array.to_list p.frees)

let home_of_vid t v =
  match t.part with
  | None -> ((v mod t.num_pes) + t.num_pes) mod t.num_pes
  | Some p -> home_of p v

(* Home-scoped views, used by the crash-recovery checkpoints: a PE's
   checkpoint covers exactly the slots homed at it (dense-prefix slots
   with [vid mod pes = home] plus its whole striped segment), live and
   free alike, in ascending vid order. *)
let iter_dense_home t ~pes h f =
  let k = ref h in
  while !k < Seg.length t.dense do
    f (Seg.get t.dense !k);
    k := !k + pes
  done

let iter_home t ~pe f =
  match t.part with
  | None -> iter_dense_home t ~pes:t.num_pes (((pe mod t.num_pes) + t.num_pes) mod t.num_pes) f
  | Some p ->
    let h = ((pe mod p.pes) + p.pes) mod p.pes in
    iter_dense_home t ~pes:p.pes h f;
    for k = 0 to Seg.length p.segs.(h) - 1 do
      f (Seg.get p.segs.(h) k)
    done

let home_free_list t ~pe =
  match t.part with
  | None ->
    let h = ((pe mod t.num_pes) + t.num_pes) mod t.num_pes in
    List.filter (fun v -> v mod t.num_pes = h) (Vec.to_list t.free)
  | Some p -> Vec.to_list p.frees.(((pe mod p.pes) + p.pes) mod p.pes)

let iter_home_free t ~pe f =
  match t.part with
  | None ->
    let h = ((pe mod t.num_pes) + t.num_pes) mod t.num_pes in
    Vec.iter (fun v -> if v mod t.num_pes = h then f v) t.free
  | Some p -> Vec.iter f p.frees.(((pe mod p.pes) + p.pes) mod p.pes)

let set_home_free_list t ~pe ids =
  match t.part with
  | None -> invalid_arg "Graph.set_home_free_list: graph is not partitioned"
  | Some p ->
    let h = ((pe mod p.pes) + p.pes) mod p.pes in
    let fl = p.frees.(h) in
    t.n_free <- t.n_free - Vec.length fl;
    Vec.clear fl;
    List.iter (fun id -> Vec.push fl id) ids;
    t.n_free <- t.n_free + Vec.length fl

let grow_home t ~pe =
  match t.part with
  | None -> invalid_arg "Graph.grow_home: graph is not partitioned"
  | Some p ->
    let h = ((pe mod p.pes) + p.pes) mod p.pes in
    let k = Seg.length p.segs.(h) in
    let id = p.base + (k * p.pes) + h in
    let v = seg_alloc t p h id ~pe:h Label.Freed in
    Vertex.set_free v true;
    Vertex.set_birth v t.epoch;
    id

(* Iteration is always in ascending vid order — dense prefix first, then
   the striped segments interleaved by stripe index — so digests and
   live-set listings cannot depend on which PE allocated a vertex. *)
let iter_all f t =
  Seg.iter f t.dense;
  match t.part with
  | None -> ()
  | Some p ->
    let maxk = Array.fold_left (fun m s -> Int.max m (Seg.length s)) 0 p.segs in
    for k = 0 to maxk - 1 do
      for h = 0 to p.pes - 1 do
        if k < Seg.length p.segs.(h) then f (Seg.get p.segs.(h) k)
      done
    done

let iter_live f t = iter_all (fun v -> if not (Vertex.free v) then f v) t

(* [iter_live] with the loops spelled out and the caller's state passed
   along, so a top-level [f] makes the scan allocation-free. *)
let visit_live s k x f =
  let v = Seg.get s k in
  if not (Vertex.free v) then f x v

let iter_live_with t x f =
  for k = 0 to Seg.length t.dense - 1 do
    visit_live t.dense k x f
  done;
  match t.part with
  | None -> ()
  | Some p ->
    let maxk = Array.fold_left (fun m s -> Int.max m (Seg.length s)) 0 p.segs in
    for k = 0 to maxk - 1 do
      for h = 0 to p.pes - 1 do
        if k < Seg.length p.segs.(h) then visit_live p.segs.(h) k x f
      done
    done

let live_vids t =
  let acc = ref [] in
  iter_live (fun v -> acc := Vertex.id v :: !acc) t;
  List.rev !acc

let fold_live f acc t =
  let acc = ref acc in
  iter_live (fun v -> acc := f !acc v) t;
  !acc

(* Resetting a plane is an O(chunks) epoch bump (see [Vertex.reset_plane_cols])
   and opens a new wave: the wave counter is shared by both planes, so
   it is globally unique across M_R and M_T — mark tasks, termination
   credits and seed stamps tagged with it can never collide between the
   two marking processes, or between overlapping cycles. *)
let reset_plane t plane =
  t.wave <- t.wave + 1;
  Seg.reset_plane t.dense plane;
  match t.part with
  | None -> ()
  | Some p -> Array.iter (fun s -> Seg.reset_plane s plane) p.segs

let wave t = t.wave

let releases t = t.releases
