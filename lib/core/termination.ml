type t = {
  window : int;
  epoch : int;
  sent : int array;
  executed : int array;
  reported : bool array;
  mutable first_step : int;  (** step of the first quiet observation; -1 = none *)
  mutable first_sent : int;  (** the [sent] sum at [first_step] *)
  mutable terminated : bool;
}

let create ~window ~epoch ~pes =
  {
    window;
    epoch;
    sent = Array.make (Int.max 1 pes) 0;
    executed = Array.make (Int.max 1 pes) 0;
    reported = Array.make (Int.max 1 pes) false;
    first_step = -1;
    first_sent = 0;
    terminated = false;
  }

let epoch t = t.epoch

(* Counters are cumulative within a wave, so a reordered or duplicated
   credit can only report a stale (smaller) value: componentwise max
   makes [learn] idempotent and order-insensitive, which is what lets
   credits ride every transport frame without any delivery discipline of
   their own. A credit from another wave is noise and is dropped. *)
let learn t ~pe ~epoch ~sent ~executed =
  if epoch = t.epoch && pe >= 0 && pe < Array.length t.sent then begin
    t.reported.(pe) <- true;
    if sent > t.sent.(pe) then t.sent.(pe) <- sent;
    if executed > t.executed.(pe) then t.executed.(pe) <- executed
  end

(* A loop, not a local recursive function: [observe] runs every poll,
   and the function would be a fresh closure each time. *)
let all_reported t =
  let i = ref 0 in
  while !i < Array.length t.reported && t.reported.(!i) do
    incr i
  done;
  !i = Array.length t.reported

let learned_sent t = Array.fold_left ( + ) 0 t.sent

let learned_executed t = Array.fold_left ( + ) 0 t.executed

(* The two-wave rule on the learned vectors: balanced sums with the same
   [sent] total at two observations at least [window] apart. Requiring
   every PE to have reported at least once keeps the empty prefix honest
   — before any credits arrive both sums are 0 and would look quiet. *)
let observe t ~now =
  if not t.terminated then begin
    let sent = learned_sent t and executed = learned_executed t in
    if (not (all_reported t)) || sent <> executed then t.first_step <- -1
    else if t.first_step < 0 || sent <> t.first_sent then begin
      t.first_step <- now;
      t.first_sent <- sent
    end
    else if now - t.first_step >= t.window then t.terminated <- true
  end

let terminated t = t.terminated
