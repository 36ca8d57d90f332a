(* Members live as bits of 62-bit words, bit [i mod 62] of word
   [i / 62], so a word's lowest member is a positive power of two. *)
let bits = 62

type t = { words : int array; n : int }

let create n = { words = Array.make ((Int.max 0 n + bits - 1) / bits) 0; n = Int.max 0 n }

let check t i op =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Bitset.%s: %d outside [0, %d)" op i t.n)

let add t i =
  check t i "add";
  let w = i / bits in
  t.words.(w) <- t.words.(w) lor (1 lsl (i - (w * bits)))

let remove t i =
  check t i "remove";
  let w = i / bits in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i - (w * bits)))

(* [2^k mod 67] is distinct for every k below 66 (2 generates the
   units mod 67), so a word's lowest set bit is found by one modulo by
   a constant and one table read, with no branch. *)
let log2_mod67 =
  let a = Array.make 67 0 in
  for k = 0 to bits - 1 do
    a.((1 lsl k) mod 67) <- k
  done;
  a

let ctz x = Array.unsafe_get log2_mod67 ((x land (-x)) mod 67)

let rec scan words w =
  if w >= Array.length words then -1
  else
    let x = Array.unsafe_get words w in
    if x <> 0 then (w * bits) + ctz x else scan words (w + 1)

let next t i =
  let i = Int.max 0 i in
  if i >= t.n then -1
  else
    let w = i / bits in
    let x = t.words.(w) land (-1 lsl (i - (w * bits))) in
    if x <> 0 then (w * bits) + ctz x else scan t.words (w + 1)

let fill t dst =
  let n = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    let x = ref (Array.unsafe_get t.words w) in
    while !x <> 0 do
      dst.(!n) <- (w * bits) + ctz !x;
      incr n;
      x := !x land (!x - 1)
    done
  done;
  !n

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let elements t =
  let rec from i acc = if i < 0 then List.rev acc else from (next t (i + 1)) (i :: acc) in
  from (next t 0) []
