(* Causal task lineage: the side-car store behind per-task latency.

   Every injection mints a fresh *lineage id* (lin); every reduction
   task in flight holds a *ticket* — a recycled slot in parallel int
   arrays recording which lineage it belongs to, its causal depth
   (hops from the injected root), and the three timestamps the latency
   decomposition needs: when it was sent, when it would arrive on an
   ideal link, and when it was actually delivered into a pool. Marking
   tasks are never ticketed: the latency decomposition follows demand
   propagation, not the mark wave, and a wave's volume would only churn
   slots. They carry stamp -1.

   Slots are recycled LIFO through an explicit stack, so ticket ids
   depend only on the (deterministic) open/close order — never on wall
   time or domain count. Per-lineage aggregates (injection step, last
   execution step, task count, max depth) survive ticket recycling and
   feed the critical-path section of [dgr report]. *)

type t = {
  (* per-ticket parallel arrays, indexed by slot *)
  mutable lin : int array;
  mutable depth : int array;
  mutable sent : int array;
  mutable arrival : int array;
  mutable delivered : int array;
  mutable free : int array;  (* LIFO stack of recycled slots *)
  mutable free_top : int;
  mutable next_slot : int;
  mutable in_flight : int;
  (* per-lineage aggregates, indexed by lin *)
  mutable l_injected : int array;
  mutable l_last : int array;
  mutable l_tasks : int array;
  mutable l_depth : int array;
  mutable num_lineages : int;
  mutable closed : int;  (* tickets retired at execution *)
  mutable dropped : int;  (* tickets retired by [drop] *)
}

let create () =
  {
    lin = Array.make 64 0;
    depth = Array.make 64 0;
    sent = Array.make 64 0;
    arrival = Array.make 64 0;
    delivered = Array.make 64 0;
    free = Array.make 64 0;
    free_top = 0;
    next_slot = 0;
    in_flight = 0;
    l_injected = Array.make 16 0;
    l_last = Array.make 16 0;
    l_tasks = Array.make 16 0;
    l_depth = Array.make 16 0;
    num_lineages = 0;
    closed = 0;
    dropped = 0;
  }

let grow a fill = Array.append a (Array.make (Array.length a) fill)

let new_lineage t ~now =
  let lin = t.num_lineages in
  if lin = Array.length t.l_injected then begin
    t.l_injected <- grow t.l_injected 0;
    t.l_last <- grow t.l_last 0;
    t.l_tasks <- grow t.l_tasks 0;
    t.l_depth <- grow t.l_depth 0
  end;
  t.l_injected.(lin) <- now;
  t.l_last.(lin) <- now;
  t.l_tasks.(lin) <- 0;
  t.l_depth.(lin) <- 0;
  t.num_lineages <- lin + 1;
  lin

let open_ticket t ~lin ~depth ~sent ~arrival =
  let slot =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      let s = t.next_slot in
      if s = Array.length t.lin then begin
        t.lin <- grow t.lin 0;
        t.depth <- grow t.depth 0;
        t.sent <- grow t.sent 0;
        t.arrival <- grow t.arrival 0;
        t.delivered <- grow t.delivered 0;
        t.free <- grow t.free 0
      end;
      t.next_slot <- s + 1;
      s
    end
  in
  t.lin.(slot) <- lin;
  t.depth.(slot) <- depth;
  t.sent.(slot) <- sent;
  t.arrival.(slot) <- arrival;
  t.delivered.(slot) <- -1;
  t.in_flight <- t.in_flight + 1;
  slot

let deliver t slot ~now = t.delivered.(slot) <- now

let lin_of t slot = t.lin.(slot)
let depth_of t slot = t.depth.(slot)
let sent_of t slot = t.sent.(slot)
let arrival_of t slot = t.arrival.(slot)

let delivered_of t slot =
  if t.delivered.(slot) < 0 then t.arrival.(slot) else t.delivered.(slot)

let release t slot =
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  t.in_flight <- t.in_flight - 1

let close t slot ~now =
  let lin = t.lin.(slot) in
  if lin >= 0 then begin
    if now > t.l_last.(lin) then t.l_last.(lin) <- now;
    t.l_tasks.(lin) <- t.l_tasks.(lin) + 1;
    if t.depth.(slot) > t.l_depth.(lin) then t.l_depth.(lin) <- t.depth.(slot)
  end;
  t.closed <- t.closed + 1;
  release t slot

(* Bulk close for the step barrier: one call per shard instead of one
   [close] per executed task. Reads [slots.(0..len-1)] in order, so the
   per-lineage aggregates and the LIFO free-stack order are exactly what
   the equivalent sequence of [close] calls would leave — slot recycling
   stays a pure function of the close order. *)
let close_many t slots ~len ~now =
  for k = 0 to len - 1 do
    let slot = slots.(k) in
    let lin = t.lin.(slot) in
    if lin >= 0 then begin
      if now > t.l_last.(lin) then t.l_last.(lin) <- now;
      t.l_tasks.(lin) <- t.l_tasks.(lin) + 1;
      if t.depth.(slot) > t.l_depth.(lin) then t.l_depth.(lin) <- t.depth.(slot)
    end;
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1
  done;
  t.closed <- t.closed + len;
  t.in_flight <- t.in_flight - len

let drop t slot =
  t.dropped <- t.dropped + 1;
  release t slot

let lineages t = t.num_lineages
let in_flight t = t.in_flight
let closed t = t.closed
let dropped t = t.dropped

let iter_lineages t f =
  for lin = 0 to t.num_lineages - 1 do
    f ~lin ~injected:t.l_injected.(lin) ~last:t.l_last.(lin)
      ~tasks:t.l_tasks.(lin) ~depth:t.l_depth.(lin)
  done
