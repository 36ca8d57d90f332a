(* In-memory span recorder for the traced run. Spans are recorded only
   here, around the benchmark's own calls into each layer; nothing inside
   the library is instrumented. Each span has a name, start, end and
   parent, and all spans of one rep share the rep's id. Storage is
   parallel arrays grown by doubling, so recording a span allocates
   nothing in the steady state. *)

type t = {
  mutable n : int;
  mutable names : string array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable parent : int array;
  mutable rep : int array;
  mutable lane : int array;
  mutable cur : int;  (** innermost open span, [-1] at top level *)
  mutable cur_rep : int;
  mutable cur_lane : int;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    names = Array.make cap "";
    t0 = Array.make cap 0.0;
    t1 = Array.make cap 0.0;
    parent = Array.make cap (-1);
    rep = Array.make cap 0;
    lane = Array.make cap 0;
    cur = -1;
    cur_rep = 0;
    cur_lane = 0;
  }

let grow t =
  let cap = 2 * Array.length t.t0 in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.t0 <- extend t.t0 0.0;
  t.t1 <- extend t.t1 0.0;
  t.parent <- extend t.parent (-1);
  t.rep <- extend t.rep 0;
  t.lane <- extend t.lane 0

(* A new rep id; [lane] groups the rep's spans on one trace row (the
   domain count it ran at, 0 for the ladder). *)
let start_rep t ~lane =
  t.cur_rep <- t.cur_rep + 1;
  t.cur_lane <- lane

let enter t name =
  if t.n = Array.length t.t0 then grow t;
  let i = t.n in
  t.names.(i) <- name;
  t.parent.(i) <- t.cur;
  t.rep.(i) <- t.cur_rep;
  t.lane.(i) <- t.cur_lane;
  t.n <- i + 1;
  t.cur <- i;
  t.t0.(i) <- Unix.gettimeofday ();
  i

let leave t i =
  t.t1.(i) <- Unix.gettimeofday ();
  t.cur <- t.parent.(i)

let span sp name f =
  match sp with
  | None -> f ()
  | Some t ->
    let i = enter t name in
    Fun.protect ~finally:(fun () -> leave t i) f

(* Durations in seconds of the current rep's spans called [name]. *)
let durations t name =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.rep.(i) = t.cur_rep && t.names.(i) = name then acc := (t.t1.(i) -. t.t0.(i)) :: !acc
  done;
  Array.of_list !acc

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span. *)
let to_chrome t =
  let b = Buffer.create (128 * (t.n + 1)) in
  let origin = if t.n = 0 then 0.0 else t.t0.(0) in
  Buffer.add_string b "{\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then Buffer.add_string b ",\n";
    Printf.bprintf b
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"span\":%d,\"parent\":%d,\"rep\":%d}}"
      t.names.(i) t.lane.(i)
      ((t.t0.(i) -. origin) *. 1e6)
      ((t.t1.(i) -. t.t0.(i)) *. 1e6)
      i t.parent.(i) t.rep.(i)
  done;
  Buffer.add_string b "]}\n";
  Buffer.contents b
