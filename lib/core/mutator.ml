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

(* The flood visit's child metas, when the closure below runs it: each
   child's priority itself, for [stk_sink] to push. *)
let priorities = [| 0; 1; 2; 3 |]

let obs t kind =
  match t.recorder with None -> () | Some r -> Dgr_obs.Recorder.emit r kind

let obs_closure t ~from ~marked =
  if marked > 0 then
    obs t (Dgr_obs.Event.Coop_closure { pe = t.coop_pe (); from_ = from; marked })

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
  let g = t.graph in
  let pplane = Vertex.plane (Graph.vertex g parent) fl.Flood.plane in
  if Plane.marked pplane then begin
    t.stk_n <- 0;
    stk_push t child (Trace.child_priority g parent (Int.max 1 (Plane.prior pplane)) child);
    let marked_here = ref 0 in
    while t.stk_n > 0 do
      t.stk_n <- t.stk_n - 1;
      let v = t.stk.(2 * t.stk_n) and prior = t.stk.((2 * t.stk_n) + 1) in
      (* the flood visit itself, its children pushed with their priority *)
      if
        Vertex.mark_flood (Graph.vertex g v) fl.Flood.plane ~prior ~metas:priorities
          ~emit:t.stk_sink
        >= 0
      then incr marked_here
    done;
    obs_closure t ~from:child ~marked:!marked_here
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

let flood_edge_all t ~parent ~child ~mt_only =
  List.iter
    (fun fl ->
      if (not mt_only) || fl.Flood.plane = Plane.MT then coop_flood t fl ~parent ~child)
    t.active_flood

(* Spawn a mark task on [child] charged to the transient [parent]
   (invariant 1 lets a transient vertex carry new outstanding tasks). *)
let charge_and_spawn t run ~parent ~child ~prior =
  let plane = Vertex.plane (Graph.vertex t.graph parent) run.Run.plane in
  Plane.set_cnt plane @@ (Plane.cnt plane) + 1;
  run.Run.coop_spawns <- run.Run.coop_spawns + 1;
  obs t (Dgr_obs.Event.Coop_spawn { pe = t.coop_pe (); parent; child });
  t.spawn child parent run.Run.metas.(prior)

(* Synchronously mark the unmarked component reachable from [v] through
   the run's traced relation. Invariants: only unmarked vertices are
   touched; they are set directly to Marked with no outstanding counts, so
   no returns are owed; transient vertices are left to their own marking
   subtree. Priorities propagate with min(prior, request-type). *)
let closure t run ~from ~prior =
  let g = t.graph in
  t.stk_n <- 0;
  stk_push t from prior;
  let marked_here = ref 0 in
  while t.stk_n > 0 do
    t.stk_n <- t.stk_n - 1;
    let v = t.stk.(2 * t.stk_n) and prior = t.stk.((2 * t.stk_n) + 1) in
    let vx = Graph.vertex g v in
    let plane = Vertex.plane vx run.Run.plane in
    if (not (Vertex.free vx)) && Plane.unmarked plane then begin
      Plane.mark plane;
      Plane.set_prior plane @@ prior;
      run.Run.coop_closure <- run.Run.coop_closure + 1;
      incr marked_here;
      Trace.iter_children g run.Run.plane v (fun c ->
          stk_push t c (Trace.child_priority g v prior c))
    end
  done;
  obs_closure t ~from ~marked:!marked_here

(* Generic cooperation for a new traced edge parent→child. *)
let cooperate_edge t run ~parent ~child =
  let g = t.graph in
  let pplane = Vertex.plane (Graph.vertex g parent) run.Run.plane in
  if Plane.transient pplane then begin
    let prior = Trace.child_priority g parent (Int.max 1 (Plane.prior pplane)) child in
    charge_and_spawn t run ~parent ~child ~prior
  end
  else if Plane.marked pplane then begin
    let prior = Trace.child_priority g parent (Int.max 1 (Plane.prior pplane)) child in
    closure t run ~from:child ~prior
  end

let coop_tree t run ~parent ~child =
  match t.defer with
  | Some sink -> sink (Ev_tree_edge { run; parent; child })
  | None -> cooperate_edge t run ~parent ~child

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
  let pa = Vertex.plane (Graph.vertex g a) run.Run.plane in
  let pb = Vertex.plane (Graph.vertex g b) run.Run.plane in
  if Plane.transient pa && Plane.unmarked pb then begin
    let prior = Trace.child_priority g a (Int.max 1 (Plane.prior pa)) c in
    charge_and_spawn t run ~parent:a ~child:c ~prior
  end
  else if Plane.marked pa && Plane.transient pb then begin
    (* execute mark(c,b) synchronously, charged to the transient b. *)
    Plane.set_cnt pb @@ (Plane.cnt pb) + 1;
    run.Run.coop_spawns <- run.Run.coop_spawns + 1;
    obs t (Dgr_obs.Event.Coop_spawn { pe = t.coop_pe (); parent = b; child = c });
    let prior = Trace.child_priority g b (Int.max 1 (Plane.prior pb)) c in
    Marker.execute run ~pe:(t.coop_pe ()) ~emit:t.spawn c b run.Run.metas.(prior)
  end
  (* marked a / marked b: c is at least transient by invariant 2;
     unmarked a, or transient a with non-unmarked b: covered by b. *)

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

let add_reference t ~a ~b ~c =
  let g = t.graph in
  let va = Graph.vertex g a and vb = Graph.vertex g b in
  if not (Vertex.has_arg va b) then
    invalid_arg
      (Printf.sprintf "Mutator.add_reference: witness v%d is not a child of v%d" b a);
  if not (Vertex.has_arg vb c) then
    invalid_arg
      (Printf.sprintf "Mutator.add_reference: v%d is not a child of witness v%d" c b);
  List.iter
    (fun run ->
      match run.Run.plane with
      | Plane.MR -> coop_witness t run ~a ~b ~c
      | Plane.MT ->
        (* The witness argument needs c ∈ traced-children(b), which does
           not hold for M_T in general (b may have requested c). Use the
           generic protocol. *)
        coop_tree t run ~parent:a ~child:c)
    t.active;
  flood_edge_all t ~parent:a ~child:c ~mt_only:false;
  connect t a c

let expand_node t ~a ~entry =
  (* The new edge a→entry starts unrequested, so the trace priority is
     min(prior(a), request-type) = 1 (Fig 5-1); if the caller records
     demand on the spliced edge afterwards, the upgrade waits for the
     next cycle (§5.3's "simply wait" option). The dispatch on [a]'s
     state is exactly [cooperate_edge]'s, so the generic (deferrable)
     path serves here too. *)
  List.iter (fun run -> coop_tree t run ~parent:a ~child:entry) t.active;
  flood_edge_all t ~parent:a ~child:entry ~mt_only:false;
  let va = Graph.vertex t.graph a in
  List.iter (fun old -> disconnect t a old) (Vertex.args va);
  connect t a entry

let connect_fresh t ~parent ~child = connect t parent child

let add_edge ?demand t ~a ~c =
  (match demand with
  | Some d -> Vertex.request_arg (Graph.vertex t.graph a) c d
  | None -> ());
  connect t a c;
  List.iter
    (fun run ->
      match run.Run.plane with
      | Plane.MR -> coop_tree t run ~parent:a ~child:c
      | Plane.MT ->
        (* a→c is in M_T's relation only if c is not requested by a. *)
        if demand = None then coop_tree t run ~parent:a ~child:c)
    t.active;
  List.iter
    (fun fl ->
      if fl.Flood.plane = Plane.MR || demand = None then coop_flood t fl ~parent:a ~child:c)
    t.active_flood

let record_request t ~at ~requester ~demand ~key =
  t.guard at;
  let vx = Graph.vertex t.graph at in
  let fresh = not (Vertex.has_request_entry vx requester key) in
  Vertex.add_requester vx requester ~demand ~key;
  match requester with
  | None -> ()
  | Some r ->
    (* Cooperate only when the traced edge is actually new — re-recording
       an existing request (e.g. a retried task) must not charge the
       marking tree again or M_T would never terminate. *)
    if fresh then begin
      List.iter
        (fun run -> if run.Run.plane = Plane.MT then coop_tree t run ~parent:at ~child:r)
        t.active;
      flood_edge_all t ~parent:at ~child:r ~mt_only:true
    end

let answer t ~at ~requester =
  t.guard at;
  Vertex.remove_requester (Graph.vertex t.graph at) requester

let request_child t ~v ~c ~demand =
  t.guard v;
  Vertex.request_arg (Graph.vertex t.graph v) c demand

let drop_request_child t ~v ~c =
  t.guard v;
  let vx = Graph.vertex t.graph v in
  Vertex.drop_request vx c;
  if Vertex.has_arg vx c then begin
    List.iter
      (fun run -> if run.Run.plane = Plane.MT then coop_tree t run ~parent:v ~child:c)
      t.active;
    flood_edge_all t ~parent:v ~child:c ~mt_only:true
  end
