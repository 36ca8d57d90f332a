(* Host-speed calibration.

   The benchmark's host shares its cores with other machines' work, and
   its speed drifts: on the 2-vCPU Xeon VM the bounds were set on,
   storm-tree's single-domain rate moved between 6.5k and 12.7k steps/s
   within two and a half minutes, in step with a fixed stdlib-only loop
   run beside it. A median over the reps of one run cannot remove a slow
   spell that lasts the whole run, so every timed item is bracketed by
   this calibration loop and its host time is rescaled to a host that
   runs the loop in [nominal_s]. The loop touches no library code, so a
   change to the library cannot move it. *)

let nominal_s = 0.06

let sink = ref 0

(* Fixed work: hashing into a 64k-entry table, sorting, short-lived list
   cells — the simulator's own mix of allocation and scattered access. *)
let kernel () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 1024 in
  let r = ref 1 in
  for i = 0 to 200_000 do
    r := ((!r * 1103515245) + 12345) land 0xFFFFFF;
    Hashtbl.replace h (!r land 0xFFFF) (i, !r)
  done;
  let a = Array.init 100_000 (fun i -> (i * 7919) land 0xFFFF) in
  Array.sort compare a;
  let l = ref [] in
  for i = 0 to 200_000 do
    l := i :: !l;
    if i land 1023 = 0 then l := []
  done;
  sink := !sink + Hashtbl.length h + a.(0) + List.length !l;
  Unix.gettimeofday () -. t0

(* How much slower than nominal the host runs right now (>1 = slower):
   the fastest of three calibration loops over [nominal_s]. *)
let slowdown () =
  Gc.full_major ();
  Float.min (kernel ()) (Float.min (kernel ()) (kernel ())) /. nominal_s

(* A run's calibrations in time order. Every timed item is preceded by
   one; item [k] is the one timed between readings [k] and [k + 1]. *)
type t = { mutable readings : float list; mutable count : int }

let create () = { readings = []; count = 0 }

(* Calibrate now; the index of the item timed next. *)
let mark t =
  t.readings <- slowdown () :: t.readings;
  t.count <- t.count + 1;
  t.count - 1

(* Closes the run with one more reading; the slowdown of item [k] is
   then the geometric mean of the readings just before and just after
   it, so a slow spell that starts or ends during an item counts in
   part. *)
let finish t =
  ignore (mark t);
  let a = Array.of_list (List.rev t.readings) in
  fun k -> sqrt (a.(k) *. a.(k + 1))
