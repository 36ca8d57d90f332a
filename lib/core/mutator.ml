open Dgr_graph
open Dgr_task

type coop_event =
  | Ev_tree_edge of { run : Run.t; parent : Vid.t; child : Vid.t }
  | Ev_witness of { run : Run.t; a : Vid.t; b : Vid.t; c : Vid.t }
  | Ev_flood_edge of { fl : Flood.t; parent : Vid.t; child : Vid.t }

type t = {
  graph : Graph.t;
  mutable active : Run.t list;
  mutable active_flood : Flood.t list;
  mutable spawn : Task.sink;
  mutable coop_pe : unit -> int;
  mutable defer : (coop_event -> unit) option;
  mutable on_connect : Vid.t -> Vid.t -> unit;
  mutable on_disconnect : Vid.t -> Vid.t -> unit;
  mutable recorder : Dgr_obs.Recorder.t option;
  mutable guard : Vid.t -> unit;
  (* Scratch stack for the synchronous marking closures, (vid, prior)
     pairs interleaved. Reused across calls — the closures never nest —
     so the traversal allocates nothing once the stack has grown. *)
  mutable stk : int array;
  mutable stk_n : int;
  mutable stk_sink : Task.sink;
}

let nop2 _ _ = ()

let stk_push t v prior =
  let n = t.stk_n in
  if 2 * (n + 1) > Array.length t.stk then begin
    let a = Array.make (4 * (n + 1)) 0 in
    Array.blit t.stk 0 a 0 (2 * n);
    t.stk <- a
  end;
  t.stk.(2 * n) <- v;
  t.stk.((2 * n) + 1) <- prior;
  t.stk_n <- n + 1

let create ?(on_connect = nop2) ?(on_disconnect = nop2) ?recorder ~spawn graph =
  let t =
    {
      graph;
      active = [];
      active_flood = [];
      spawn;
      coop_pe = (fun () -> 0);
      defer = None;
      on_connect;
      on_disconnect;
      recorder;
      guard = ignore;
      stk = Array.make 32 0;
      stk_n = 0;
      stk_sink = (fun _ _ _ -> ());
    }
  in
  t.stk_sink <- (fun v _ prior -> stk_push t v prior);
  t

(* The child metas of the closures' visits: each child's priority
   itself, for [stk_sink] to push. *)
let priorities = [| 0; 1; 2; 3 |]

(* The priority a cooperation mark from [parent] onto [child] carries:
   the parent's own, at least reserve, bounded by the edge's request
   type (Fig 5-1). *)
let coop_priority g pid ~parent ~child =
  let px = Graph.vertex g parent in
  Vertex.child_priority px (Int.max 1 (Vertex.prior px pid)) child

(* Mark, synchronously, what [visit] ([Vertex.mark_flood] or
   [Vertex.mark_closure]) reaches from [from] at [prior] through the
   plane's traced relation, and return how many vertices it marked.
   Closure-marked vertices owe no returns. *)
let drain_closure t pid visit ~from ~prior =
  let g = t.graph in
  t.stk_n <- 0;
  stk_push t from prior;
  let marked_here = ref 0 in
  while t.stk_n > 0 do
    t.stk_n <- t.stk_n - 1;
    let vx = Graph.vertex g t.stk.(2 * t.stk_n) and prior = t.stk.((2 * t.stk_n) + 1) in
    if visit vx pid ~prior ~metas:priorities ~emit:t.stk_sink >= 0 then incr marked_here
  done;
  !marked_here

(* The cooperation events are built only with a recorder attached: an
   event record built to be dropped is a heap block per cooperation. *)
let obs_closure t ~from ~marked =
  match t.recorder with
  | Some r when marked > 0 ->
    Dgr_obs.Recorder.emit r
      (Dgr_obs.Event.Coop_closure { pe = t.coop_pe (); from_ = from; marked })
  | Some _ | None -> ()

let obs_spawn t ~parent ~child =
  match t.recorder with
  | Some r ->
    Dgr_obs.Recorder.emit r (Dgr_obs.Event.Coop_spawn { pe = t.coop_pe (); parent; child })
  | None -> ()

let set_active t runs = t.active <- runs

let set_active_flood t floods = t.active_flood <- floods

let set_defer t sink = t.defer <- sink

(* Flood-scheme cooperation: a marked vertex that gains a traced child
   marks the child's unmarked component synchronously (the same closure
   the tree scheme uses for non-witnessed edges). Spawning counted tasks
   here instead would be correct for the marked sets but unsound for
   termination: a mutator that keeps editing marked regions (e.g. a
   divergent speculative frontier) would feed the counters forever and
   the detection wave would never see them balance. The closure adds no
   bookkeeping, so the two-words-per-PE claim stands. *)
let flood_cooperate_edge t (fl : Flood.t) ~parent ~child =
  let pid = fl.Flood.plane in
  if Vertex.marked (Graph.vertex t.graph parent) pid then begin
    let prior = coop_priority t.graph pid ~parent ~child in
    let marked = drain_closure t pid Vertex.mark_flood ~from:child ~prior in
    obs_closure t ~from:child ~marked
  end

(* Deferral: while the sharded engine's shards run, cooperation may not
   run inline — its closures mark vertices on other PEs' shards. The
   engine installs a sink; the graph edit itself (always owner-local)
   proceeds immediately, and the cooperation body is replayed serially
   at the step barrier, in deferring-PE order, against the plane state
   as of the barrier. Evaluating the marked/transient dispatch late is
   sound: the invariants are only consumed at barriers (verdict,
   restructure, invariant checks), and a parent that advanced
   unmarked→transient→marked in the meantime only strengthens what the
   replayed cooperation does. *)
let coop_flood t fl ~parent ~child =
  match t.defer with
  | Some sink -> sink (Ev_flood_edge { fl; parent; child })
  | None -> flood_cooperate_edge t fl ~parent ~child

let rec coop_floods t floods ~mr ~mt ~parent ~child =
  match floods with
  | [] -> ()
  | fl :: rest ->
    if match fl.Flood.plane with Plane.MR -> mr | Plane.MT -> mt then
      coop_flood t fl ~parent ~child;
    coop_floods t rest ~mr ~mt ~parent ~child

(* Spawn a mark task on [child] charged to the transient [parent]
   (invariant 1 lets a transient vertex carry new outstanding tasks). *)
let charge_and_spawn t run ~parent ~child ~prior =
  Vertex.charge (Graph.vertex t.graph parent) run.Run.plane;
  run.Run.coop_spawns <- run.Run.coop_spawns + 1;
  obs_spawn t ~parent ~child;
  t.spawn child parent run.Run.metas.(prior)

(* Synchronously mark the unmarked component reachable from [from]
   through the run's traced relation. Invariants: only unmarked vertices
   are touched; they are set directly to Marked with no outstanding
   counts, so no returns are owed; transient vertices are left to their
   own marking subtree. Priorities propagate with min(prior,
   request-type). *)
let closure t run ~from ~prior =
  let marked = drain_closure t run.Run.plane Vertex.mark_closure ~from ~prior in
  run.Run.coop_closure <- run.Run.coop_closure + marked;
  obs_closure t ~from ~marked

(* Generic cooperation for a new traced edge parent→child. *)
let cooperate_edge t run ~parent ~child =
  let g = t.graph in
  let pid = run.Run.plane in
  let px = Graph.vertex g parent in
  if Vertex.transient px pid then
    charge_and_spawn t run ~parent ~child ~prior:(coop_priority g pid ~parent ~child)
  else if Vertex.marked px pid then
    closure t run ~from:child ~prior:(coop_priority g pid ~parent ~child)

let coop_tree t run ~parent ~child =
  match t.defer with
  | Some sink -> sink (Ev_tree_edge { run; parent; child })
  | None -> cooperate_edge t run ~parent ~child

(* Generic cooperation for the new edge parent→child on every active
   run, then every active flood, whose plane is selected by [mr]/[mt].
   Top-level recursions with every argument passed: under [-opaque] a
   [List.iter] closure capturing the edge would be a heap block per
   mutation (DESIGN.md §6). *)
let rec coop_runs t runs ~mr ~mt ~parent ~child =
  match runs with
  | [] -> ()
  | run :: rest ->
    if match run.Run.plane with Plane.MR -> mr | Plane.MT -> mt then
      coop_tree t run ~parent ~child;
    coop_runs t rest ~mr ~mt ~parent ~child

let cooperate t ~mr ~mt ~parent ~child =
  coop_runs t t.active ~mr ~mt ~parent ~child;
  coop_floods t t.active_flood ~mr ~mt ~parent ~child

let connect t a c =
  t.guard a;
  Vertex.connect (Graph.vertex t.graph a) c;
  t.on_connect a c

let disconnect t a b =
  t.guard a;
  Vertex.disconnect (Graph.vertex t.graph a) b;
  t.on_disconnect a b

let delete_reference t ~a ~b = disconnect t a b

(* Fig 4-2 witness protocol, for a plane whose traced relation contains
   plain args edges (M_R). [b] witnesses that [c] was already traceable. *)
let witness_cooperate t run ~a ~b ~c =
  let g = t.graph in
  let pid = run.Run.plane in
  let va = Graph.vertex g a and vb = Graph.vertex g b in
  if Vertex.transient va pid && Vertex.unmarked vb pid then
    charge_and_spawn t run ~parent:a ~child:c ~prior:(coop_priority g pid ~parent:a ~child:c)
  else if Vertex.marked va pid && Vertex.transient vb pid then begin
    (* execute mark(c,b) synchronously, charged to the transient b. *)
    Vertex.charge vb pid;
    run.Run.coop_spawns <- run.Run.coop_spawns + 1;
    obs_spawn t ~parent:b ~child:c;
    let prior = coop_priority g pid ~parent:b ~child:c in
    Marker.execute run ~pe:(t.coop_pe ()) ~emit:t.spawn c b run.Run.metas.(prior)
  end
  else if Vertex.marked va pid && Vertex.unmarked vb pid then
    (* A marked [a] may point to an unmarked [b] whose mark task is still
       pending (the refined invariant 2, see [Invariants]); [c] may then
       be unmarked with no task of its own, and [b] does not cover the
       new edge until its task runs. Cooperate as for any new edge below
       a marked parent: mark [c]'s unmarked component. *)
    closure t run ~from:c ~prior:(coop_priority g pid ~parent:a ~child:c)
  (* marked a / marked b: c is marked, transient or has a pending task
     by invariant 2; unmarked a, or transient a with non-unmarked b:
     covered by b. *)

let coop_witness t run ~a ~b ~c =
  match t.defer with
  | Some sink -> sink (Ev_witness { run; a; b; c })
  | None -> witness_cooperate t run ~a ~b ~c

(* Replay one deferred cooperation event against the current plane
   state. The engine calls this serially at the barrier, in deferring-PE
   order, with [coop_pe] answering the event's PE so flood counters and
   trace events charge where the mutation ran. *)
let replay t ev =
  match ev with
  | Ev_tree_edge { run; parent; child } -> cooperate_edge t run ~parent ~child
  | Ev_witness { run; a; b; c } -> witness_cooperate t run ~a ~b ~c
  | Ev_flood_edge { fl; parent; child } -> flood_cooperate_edge t fl ~parent ~child

let rec witness_runs t runs ~a ~b ~c =
  match runs with
  | [] -> ()
  | run :: rest ->
    (match run.Run.plane with
    | Plane.MR -> coop_witness t run ~a ~b ~c
    | Plane.MT ->
      (* The witness argument needs c ∈ traced-children(b), which does
         not hold for M_T in general (b may have requested c). Use the
         generic protocol. *)
      coop_tree t run ~parent:a ~child:c);
    witness_runs t rest ~a ~b ~c

let add_reference t ~a ~b ~c =
  let g = t.graph in
  let va = Graph.vertex g a and vb = Graph.vertex g b in
  if not (Vertex.has_arg va b) then
    invalid_arg
      (Printf.sprintf "Mutator.add_reference: witness v%d is not a child of v%d" b a);
  if not (Vertex.has_arg vb c) then
    invalid_arg
      (Printf.sprintf "Mutator.add_reference: v%d is not a child of witness v%d" c b);
  witness_runs t t.active ~a ~b ~c;
  coop_floods t t.active_flood ~mr:true ~mt:true ~parent:a ~child:c;
  connect t a c

let expand_node t ~a ~entry =
  (* The new edge a→entry starts unrequested, so the trace priority is
     min(prior(a), request-type) = 1 (Fig 5-1); if the caller records
     demand on the spliced edge afterwards, the upgrade waits for the
     next cycle (§5.3's "simply wait" option). The dispatch on [a]'s
     state is exactly [cooperate_edge]'s, so the generic (deferrable)
     path serves here too. *)
  cooperate t ~mr:true ~mt:true ~parent:a ~child:entry;
  (* [disconnect] removes the first occurrence, so draining from the
     front drops the old args in order, as a walk over their list would. *)
  let va = Graph.vertex t.graph a in
  while Vertex.arg_count va > 0 do
    disconnect t a (Vertex.arg va 0)
  done;
  connect t a entry

let connect_fresh t ~parent ~child = connect t parent child

let add_edge ?demand t ~a ~c =
  (match demand with
  | Some d -> Vertex.request_arg (Graph.vertex t.graph a) c d
  | None -> ());
  connect t a c;
  (* a→c is in M_T's relation only if c is not requested by a. *)
  cooperate t ~mr:true ~mt:(Option.is_none demand) ~parent:a ~child:c

let record_request t ~at ~who ~demand ~key =
  t.guard at;
  let vx = Graph.vertex t.graph at in
  let fresh = not (Vertex.has_who_entry vx who key) in
  Vertex.add_who vx who ~demand ~key;
  (* Cooperate only when the traced edge is actually new — re-recording
     an existing request (e.g. a retried task) must not charge the
     marking tree again or M_T would never terminate. The external
     requester ([-1]) is no vertex. *)
  if who >= 0 && fresh then cooperate t ~mr:false ~mt:true ~parent:at ~child:who

let answer t ~at ~who =
  t.guard at;
  Vertex.remove_who (Graph.vertex t.graph at) who

let request_child t ~v ~c ~demand =
  t.guard v;
  Vertex.request_arg (Graph.vertex t.graph v) c demand

let drop_request_child t ~v ~c =
  t.guard v;
  let vx = Graph.vertex t.graph v in
  Vertex.drop_request vx c;
  if Vertex.has_arg vx c then cooperate t ~mr:false ~mt:true ~parent:v ~child:c
