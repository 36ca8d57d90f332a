(* A growable ring of mark lanes (see [Task.sink]), three ints per slot,
   so queueing a mark allocates nothing. Its capacity is 0 or a power of
   two, so positions wrap by masking. *)
type t = {
  mutable buf : int array;  (* slot [k] is [buf.(3k) .. buf.(3k+2)] *)
  mutable mask : int;  (* capacity - 1 *)
  mutable head : int;  (* slot of the oldest mark *)
  mutable len : int;
}

let create () = { buf = [||]; mask = -1; head = 0; len = 0 }

let length r = r.len

let slot r i = 3 * ((r.head + i) land r.mask)

(* Unwrap into a buffer twice the size, oldest mark in slot 0. *)
let grow r =
  let cap = r.mask + 1 in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let buf = Array.make (3 * cap') 0 in
  for i = 0 to r.len - 1 do
    Array.blit r.buf (slot r i) buf (3 * i) 3
  done;
  r.buf <- buf;
  r.mask <- cap' - 1;
  r.head <- 0

let push r v par meta =
  if r.len = r.mask + 1 then grow r;
  let k = slot r r.len in
  Array.unsafe_set r.buf k v;
  Array.unsafe_set r.buf (k + 1) par;
  Array.unsafe_set r.buf (k + 2) meta;
  r.len <- r.len + 1

(* [push] for each mark among the first [n] lanes of [a], oldest first:
   a mark is three lanes, and a negative lane 2 is a reduction's head
   ([Task.red_lanes] wide), skipped. *)
let push_marks r a n =
  let i = ref 0 in
  while !i < n do
    let meta = a.(!i + 2) in
    if meta >= 0 then begin
      push r a.(!i) a.(!i + 1) meta;
      i := !i + 3
    end
    else i := !i + Task.red_lanes
  done

(* Every take updates the ring before [f] runs, so [f] may push (a push
   may regrow [buf], so the lanes are read first). *)
let drain r ~budget (f : Task.sink) =
  let n = ref 0 in
  while !n < budget && r.len > 0 do
    let k = slot r 0 in
    let v = Array.unsafe_get r.buf k
    and par = Array.unsafe_get r.buf (k + 1)
    and meta = Array.unsafe_get r.buf (k + 2) in
    r.head <- (r.head + 1) land r.mask;
    r.len <- r.len - 1;
    incr n;
    f v par meta
  done;
  !n

let pop_with r f = drain r ~budget:1 f = 1

let take_with r i (f : Task.sink) =
  if i < 0 || i >= r.len then
    invalid_arg (Printf.sprintf "Mark_ring.take_with: index %d of %d" i r.len);
  let k = slot r i in
  let v = r.buf.(k) and par = r.buf.(k + 1) and meta = r.buf.(k + 2) in
  r.len <- r.len - 1;
  if i < r.len then Array.blit r.buf (slot r r.len) r.buf k 3;
  f v par meta

let view r i =
  let k = slot r i in
  Task.mark_of_lanes r.buf.(k) r.buf.(k + 1) r.buf.(k + 2)

let to_list r = List.init r.len (view r)

let clear r = r.len <- 0
