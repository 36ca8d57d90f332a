open Dgr_util

exception Out_of_vertices

(* A segment: append-only vertex storage with a fixed chunk directory.
   Chunk [j] holds [base_size * 2^j] slots and, once allocated, never
   moves — unlike a resizing array, a reader on another domain can never
   observe a half-copied backing store. The sharded engine's step barrier
   orders every push before any cross-domain read of the slot (fresh vids
   only escape their allocating PE via messages, which take a step), so
   reads of published slots are race-free. Single writer per segment.

   Each chunk owns a struct-of-arrays column set ([Vertex.cols]) holding
   the fixed-width per-vertex state; the handle directory is parallel to
   it. Columns obey the same no-move discipline as the handles. *)
module Seg = struct
  type t = {
    chunks : Vertex.t array array;
    cols : Vertex.cols array;
    mutable len : int;
  }

  let n_chunks = 40

  let base_size = 512

  let create () =
    {
      chunks = Array.make n_chunks [||];
      cols = Array.make n_chunks Vertex.empty_cols;
      len = 0;
    }

  (* Chunk [j] starts at slot [base_size * (2^j - 1)]; slot [i] lives in
     the chunk [chunk_of i], at offset [i - chunk_start j]. Two scalar
     functions rather than one returning a pair: every vertex lookup goes
     through here, and the pair would be a heap block per lookup. *)
  let chunk_start j = base_size * ((1 lsl j) - 1)

  let chunk_of i =
    let j = ref 0 in
    while i >= chunk_start (!j + 1) do
      incr j
    done;
    !j

  let length t = t.len

  let get t i =
    let j = chunk_of i in
    Array.unsafe_get (Array.unsafe_get t.chunks j) (i - chunk_start j)

  (* The slot's PE, read from the chunk's column: the handle itself is
     never loaded. *)
  let pe t i =
    let j = chunk_of i in
    Vertex.pe_at (Array.unsafe_get t.cols j) (i - chunk_start j)

  let dummy = lazy (Vertex.create (-1) ~pe:(-1) Label.Freed)

  (* Append a fresh slot, materializing the chunk (handles + columns) on
     first touch, and return its handle. *)
  let alloc t id ~pe label =
    let j = chunk_of t.len in
    let off = t.len - chunk_start j in
    if Array.length t.chunks.(j) = 0 then begin
      t.cols.(j) <- Vertex.make_cols (base_size lsl j);
      t.chunks.(j) <- Array.make (base_size lsl j) (Lazy.force dummy)
    end;
    let v = Vertex.attach id ~off t.cols.(j) ~pe label in
    t.chunks.(j).(off) <- v;
    t.len <- t.len + 1;
    v

  let iter f t =
    let remaining = ref t.len and j = ref 0 in
    while !remaining > 0 do
      let chunk = t.chunks.(!j) in
      let n = Int.min !remaining (Array.length chunk) in
      for off = 0 to n - 1 do
        f (Array.unsafe_get chunk off)
      done;
      remaining := !remaining - n;
      incr j
    done

  (* Bulk plane reset, one column fill per materialized chunk. Slots past
     [len] are pristine already, so whole-chunk fills are equivalent to
     per-slot resets. *)
  let reset_plane t plane =
    let remaining = ref t.len and j = ref 0 in
    while !remaining > 0 do
      Vertex.reset_plane_cols t.cols.(!j) plane;
      remaining := !remaining - Int.min !remaining (Array.length t.chunks.(!j));
      incr j
    done
end

(* Partitioned storage, installed by [partition] once the graph stops
   growing densely (i.e. when an engine takes ownership). Each home PE
   gets its own free list, its own segment of fresh slots, and its own
   slice of the capacity budget, so PEs running on different domains can
   allocate without sharing any mutable structure. Fresh vids are striped
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
  }

let vertex_count t =
  Seg.length t.dense
  + match t.part with
    | None -> 0
    | Some p -> Array.fold_left (fun acc s -> acc + Seg.length s) 0 p.segs

let share_of cap pes h = (cap / pes) + if h < cap mod pes then 1 else 0

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
      p.shares

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
      }

let home_of p v = if v < p.base then v mod p.pes else (v - p.base) mod p.pes

let used_of p h = p.dense_counts.(h) + Seg.length p.segs.(h)

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

let headroom t =
  match t.part with
  | None -> (
    match t.capacity with
    | None -> max_int
    | Some c -> Vec.length t.free + (c - Seg.length t.dense))
  | Some p ->
    if t.capacity = None then max_int
    else
      let acc = ref 0 in
      for h = 0 to p.pes - 1 do
        acc := !acc + headroom_for t ~pe:h
      done;
      !acc

let num_pes t = t.num_pes

let epoch t = t.epoch

let bump_epoch t = t.epoch <- t.epoch + 1

let root t =
  match t.root with
  | Some r -> r
  | None -> invalid_arg "Graph.root: no root set"

let has_root t = t.root <> None

let set_root t r = t.root <- Some r

let mem t v =
  v >= 0
  &&
  if v < Seg.length t.dense then true
  else
    match t.part with
    | None -> false
    | Some p ->
      let off = v - p.base in
      off >= 0 && off / p.pes < Seg.length p.segs.(off mod p.pes)

(* [get seg i] on the segment and index holding vid [v]. *)
let[@inline] at t v (get : Seg.t -> int -> 'a) =
  if v >= 0 && v < Seg.length t.dense then get t.dense v
  else
    match t.part with
    | Some p when v >= p.base && (v - p.base) / p.pes < Seg.length p.segs.((v - p.base) mod p.pes)
      ->
      get p.segs.((v - p.base) mod p.pes) ((v - p.base) / p.pes)
    | Some _ | None ->
      invalid_arg (Printf.sprintf "Graph.vertex: unknown vertex v%d" v)

let vertex t v = at t v Seg.get

(* Vid-keyed scalar accessors: one slot lookup, no allocation. *)
let label t v = Vertex.label (vertex t v)

let is_free t v = Vertex.free (vertex t v)

let sched_prior t v = Vertex.sched_prior (vertex t v)

let pe t v = at t v Seg.pe

let next_pe t =
  let pe = t.next_pe in
  t.next_pe <- (t.next_pe + 1) mod t.num_pes;
  pe

let fresh t ~pe label = Seg.alloc t.dense (Seg.length t.dense) ~pe label

let reuse t v ~pe label =
  let vx = vertex t v in
  Vertex.set_label vx label;
  Vertex.set_free vx false;
  Vertex.set_pe vx pe;
  Vertex.set_birth vx t.epoch;
  vx

let alloc ?pe ?from t label =
  match t.part with
  | None ->
    let pe = match pe with Some p -> p | None -> next_pe t in
    (match Vec.pop t.free with
    | Some id -> reuse t id ~pe label
    | None ->
      (match t.capacity with
      | Some c when Seg.length t.dense >= c -> raise Out_of_vertices
      | Some _ | None -> ());
      let v = fresh t ~pe label in
      Vertex.set_birth v t.epoch;
      v)
  | Some p ->
    (* Partitioned: every structure touched below belongs to [home], so
       concurrent allocations from distinct PEs never contend. *)
    let home =
      match (from, pe) with
      | Some f, _ -> ((f mod p.pes) + p.pes) mod p.pes
      | None, Some q -> ((q mod p.pes) + p.pes) mod p.pes
      | None, None -> 0
    in
    let pe = match pe with Some q -> q | None -> home in
    (match Vec.pop p.frees.(home) with
    | Some id -> reuse t id ~pe label
    | None ->
      if p.shares.(home) <> max_int && used_of p home >= p.shares.(home) then
        raise Out_of_vertices;
      let k = Seg.length p.segs.(home) in
      let id = p.base + (k * p.pes) + home in
      let v = Seg.alloc p.segs.(home) id ~pe label in
      Vertex.set_birth v t.epoch;
      v)

let release t id =
  let v = vertex t id in
  if Vertex.free v then invalid_arg (Printf.sprintf "Graph.release: v%d already free" id);
  t.releases <- t.releases + 1;
  Vertex.reset_for_free v;
  match t.part with
  | None -> Vec.push t.free id
  | Some p -> Vec.push p.frees.(home_of p id) id

let preallocate t n =
  if t.part <> None then invalid_arg "Graph.preallocate: graph is partitioned";
  for _ = 1 to n do
    let v = fresh t ~pe:(next_pe t) Label.Freed in
    Vertex.set_free v true;
    Vec.push t.free (Vertex.id v)
  done

let children t v = Vertex.args (vertex t v)

let iter_children t v f = Vertex.iter_args (vertex t v) f

let free_count t =
  Vec.length t.free
  + match t.part with
    | None -> 0
    | Some p -> Array.fold_left (fun acc f -> acc + Vec.length f) 0 p.frees

let live_count t = vertex_count t - free_count t

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
let iter_home t ~pe f =
  match t.part with
  | None ->
    let h = ((pe mod t.num_pes) + t.num_pes) mod t.num_pes in
    Seg.iter (fun v -> if Vertex.id v mod t.num_pes = h then f v) t.dense
  | Some p ->
    let h = ((pe mod p.pes) + p.pes) mod p.pes in
    Seg.iter (fun v -> if Vertex.id v mod p.pes = h then f v) t.dense;
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
    Vec.clear fl;
    List.iter (fun id -> Vec.push fl id) ids

let grow_home t ~pe =
  match t.part with
  | None -> invalid_arg "Graph.grow_home: graph is not partitioned"
  | Some p ->
    let h = ((pe mod p.pes) + p.pes) mod p.pes in
    let k = Seg.length p.segs.(h) in
    let id = p.base + (k * p.pes) + h in
    let v = Seg.alloc p.segs.(h) id ~pe:h Label.Freed in
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

let live_vids t =
  let acc = ref [] in
  iter_live (fun v -> acc := Vertex.id v :: !acc) t;
  List.rev !acc

let fold_live f acc t =
  let acc = ref acc in
  iter_live (fun v -> acc := f !acc v) t;
  !acc

(* Resetting a plane is an O(chunks) epoch bump (see [Plane.reset_cols])
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
