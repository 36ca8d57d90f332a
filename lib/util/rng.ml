(* The state lives in eight bytes rather than a mutable [int64] field, so
   reading and advancing it stays in unboxed locals: [int], [bool],
   [chance] and the other non-[int64] draws allocate nothing. Only this
   module reads the bytes, so their order is the machine's own. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* splitmix64 finalizer: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators" (OOPSLA 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let s = Int64.add (get64 t 0) golden in
  set64 t 0 s;
  mix s

let split t = of_state (int64 t)

(* A keyed stream: the [i]-th generator of the family rooted at [seed].
   Unlike [split], the derivation is stateless — stream i is a pure
   function of (seed, i), never of how many numbers any other stream has
   drawn. The sharded engine hands stream i to PE i so that a PE's
   scheduling randomness depends only on its own history. *)
let stream ~seed i =
  let z = mix (Int64.add (Int64.mul (Int64.of_int seed) golden) (Int64.of_int i)) in
  of_state (mix (Int64.logxor z (Int64.of_int i)))

let copy t = Bytes.copy t

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (int64 t) mask) in
  v mod n

(* 53 significant bits, scaled to [0,1). *)
let[@inline] unit t = Int64.to_float (Int64.shift_right_logical (int64 t) 11) /. 9007199254740992.0

let float t x = x *. unit t

(* [unit t] is [1.0 *. unit t] exactly, so this is [float t 1.0 < p]. *)
let chance t p = unit t < p

let bool t = Int64.logand (int64 t) 1L = 1L

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = unit t in
    let u = if u = 0.0 then epsilon_float else u in
    int_of_float (Float.floor (Float.log u /. Float.log (1.0 -. p)))
