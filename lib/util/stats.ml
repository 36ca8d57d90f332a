(* Every field is a float, so the record is stored flat and [add]
   boxes nothing: the count is exact as a float far beyond any run.
   Samples come in as ints (every caller counts something), which a
   call passes unboxed where a float argument would be boxed. *)
type t = {
  mutable n : float;
  mutable sum : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () = { n = 0.0; sum = 0.0; mean = 0.0; m2 = 0.0; min_v = nan; max_v = nan }

let add t v =
  let x = float_of_int v in
  t.n <- t.n +. 1.0;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if Float.is_nan t.min_v || x < t.min_v then t.min_v <- x;
  if Float.is_nan t.max_v || x > t.max_v then t.max_v <- x

let count t = int_of_float t.n

let total t = t.sum

let mean t = if t.n = 0.0 then 0.0 else t.mean

let stddev t = if t.n < 2.0 then 0.0 else sqrt (t.m2 /. (t.n -. 1.0))

let min_value t = t.min_v

let max_value t = t.max_v
