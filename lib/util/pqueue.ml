(* Parallel-array binary heap: priorities and FIFO ranks live in int
   arrays (unboxed), values in a third array, so [add] allocates nothing
   once capacity is reached — the previous entry-record representation
   cost one 4-word block per insertion, and pools/networks insert on
   every task send. Comparison semantics are unchanged: ascending
   priority, FIFO (insertion rank) among ties.

   Two more int arrays carry opaque per-entry tags, [tag] and [aux], that
   travel with the value through every move. Task pools thread a task's
   lineage ticket and send generation through them; plain
   [add]/[pop] users pay two extra stores and see -1. *)

type 'a t = {
  mutable prio : int array;
  mutable rank : int array;
  mutable tag : int array;
  mutable aux : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_rank : int;
}

let create () =
  { prio = [||]; rank = [||]; tag = [||]; aux = [||]; vals = [||]; len = 0; next_rank = 0 }

let length q = q.len

let is_empty q = q.len = 0

(* [x] seeds the new value array's filler, keeping the representation
   correct for any 'a (including float). *)
let grow q x =
  let cap = Array.length q.vals in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let prio' = Array.make cap' 0 in
  let rank' = Array.make cap' 0 in
  let tag' = Array.make cap' (-1) in
  let aux' = Array.make cap' (-1) in
  let vals' = Array.make cap' x in
  Array.blit q.prio 0 prio' 0 q.len;
  Array.blit q.rank 0 rank' 0 q.len;
  Array.blit q.tag 0 tag' 0 q.len;
  Array.blit q.aux 0 aux' 0 q.len;
  Array.blit q.vals 0 vals' 0 q.len;
  q.prio <- prio';
  q.rank <- rank';
  q.tag <- tag';
  q.aux <- aux';
  q.vals <- vals'

(* Hole-based sifts: the moving entry is held in locals, each entry it
   passes shifts one slot toward the hole, and the mover is written once
   where it lands. Every comparison is the one a swap-based sift would
   make (the mover's fields are the same either way), so the layout —
   and [iter] order — is exactly the swap-based one. A mover that stays
   put is not written back: [heapify] sifts every inner node, and most
   of them do not move. *)
let sift_up q i0 =
  let p = q.prio.(i0) and r = q.rank.(i0) and g = q.tag.(i0) and x = q.aux.(i0) in
  let v = q.vals.(i0) in
  let i = ref i0 in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = q.prio.(parent) in
    if p < pp || (p = pp && r < q.rank.(parent)) then begin
      q.prio.(!i) <- pp;
      q.rank.(!i) <- q.rank.(parent);
      q.tag.(!i) <- q.tag.(parent);
      q.aux.(!i) <- q.aux.(parent);
      q.vals.(!i) <- q.vals.(parent);
      i := parent
    end
    else continue := false
  done;
  if !i <> i0 then begin
    q.prio.(!i) <- p;
    q.rank.(!i) <- r;
    q.tag.(!i) <- g;
    q.aux.(!i) <- x;
    q.vals.(!i) <- v
  end

let sift_down q i0 =
  let n = q.len in
  let p = q.prio.(i0) and r = q.rank.(i0) and g = q.tag.(i0) and x = q.aux.(i0) in
  let v = q.vals.(i0) in
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    (* the smallest of the mover and its children, as (prio, rank, slot) *)
    let sp = ref p and sr = ref r and s = ref (-1) in
    if l < n then begin
      let lp = q.prio.(l) in
      if lp < !sp || (lp = !sp && q.rank.(l) < !sr) then begin
        sp := lp;
        sr := q.rank.(l);
        s := l
      end;
      let rc = l + 1 in
      if rc < n then begin
        let rp = q.prio.(rc) in
        if rp < !sp || (rp = !sp && q.rank.(rc) < !sr) then begin
          sp := rp;
          sr := q.rank.(rc);
          s := rc
        end
      end
    end;
    if !s < 0 then continue := false
    else begin
      let c = !s in
      q.prio.(!i) <- !sp;
      q.rank.(!i) <- !sr;
      q.tag.(!i) <- q.tag.(c);
      q.aux.(!i) <- q.aux.(c);
      q.vals.(!i) <- q.vals.(c);
      i := c
    end
  done;
  if !i <> i0 then begin
    q.prio.(!i) <- p;
    q.rank.(!i) <- r;
    q.tag.(!i) <- g;
    q.aux.(!i) <- x;
    q.vals.(!i) <- v
  end

let add_tagged q prio ~tag ~aux value =
  if q.len = Array.length q.vals then grow q value;
  let i = q.len in
  q.prio.(i) <- prio;
  q.rank.(i) <- q.next_rank;
  q.tag.(i) <- tag;
  q.aux.(i) <- aux;
  q.vals.(i) <- value;
  q.next_rank <- q.next_rank + 1;
  q.len <- i + 1;
  sift_up q i

let add q prio value = add_tagged q prio ~tag:(-1) ~aux:(-1) value

(* Remove the minimum entry and return its value. No option or tuple is
   built, so drain loops that test [min_prio] first allocate nothing. *)
let pop_min q =
  if q.len = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let v = q.vals.(0) in
  let n = q.len - 1 in
  q.len <- n;
  if n > 0 then begin
    q.prio.(0) <- q.prio.(n);
    q.rank.(0) <- q.rank.(n);
    q.tag.(0) <- q.tag.(n);
    q.aux.(0) <- q.aux.(n);
    q.vals.(0) <- q.vals.(n);
    sift_down q 0
  end;
  v

let pop q =
  if q.len = 0 then None
  else
    let p = q.prio.(0) in
    Some (p, pop_min q)

(* The heap invariant is restored before [f] runs, so [f] may re-enter
   [add_tagged]. *)
let pop_tagged_with q f =
  q.len > 0
  &&
  let g = q.tag.(0) in
  f (pop_min q) g;
  true

let min_tag q = if q.len = 0 then -1 else q.tag.(0)
let min_aux q = if q.len = 0 then -1 else q.aux.(0)

(* Unboxed peek at the minimum priority for hot drain loops that only
   need to compare it against a threshold before committing to a pop. *)
let min_prio q ~default = if q.len = 0 then default else q.prio.(0)

let clear q = q.len <- 0

let iter f q =
  for i = 0 to q.len - 1 do
    f q.prio.(i) q.vals.(i)
  done

(* Slot indexes in pop order: ascending priority, FIFO among ties. *)
let sorted_slots q =
  let idx = Array.init q.len (fun i -> i) in
  Array.sort
    (fun a b ->
      match Int.compare q.prio.(a) q.prio.(b) with
      | 0 -> Int.compare q.rank.(a) q.rank.(b)
      | c -> c)
    idx;
  idx

let to_sorted_list q =
  Array.fold_right (fun i acc -> (q.prio.(i), q.vals.(i)) :: acc) (sorted_slots q) []

let iter_sorted_aux f q = Array.iter (fun i -> f q.aux.(i) q.vals.(i)) (sorted_slots q)

let heapify q =
  for i = (q.len / 2) - 1 downto 0 do
    sift_down q i
  done

let filter_tagged_in_place p q =
  let j = ref 0 in
  for i = 0 to q.len - 1 do
    if p q.prio.(i) q.tag.(i) q.aux.(i) q.vals.(i) then begin
      if !j <> i then begin
        q.prio.(!j) <- q.prio.(i);
        q.rank.(!j) <- q.rank.(i);
        q.tag.(!j) <- q.tag.(i);
        q.aux.(!j) <- q.aux.(i);
        q.vals.(!j) <- q.vals.(i)
      end;
      incr j
    end
  done;
  q.len <- !j;
  heapify q

let filter_in_place p q = filter_tagged_in_place (fun prio _ _ v -> p prio v) q

let map_priorities f q =
  for i = 0 to q.len - 1 do
    q.prio.(i) <- f q.prio.(i) q.vals.(i)
  done;
  heapify q
