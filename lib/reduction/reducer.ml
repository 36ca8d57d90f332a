open Dgr_graph
open Dgr_task
open Task
module Mutator = Dgr_core.Mutator

let src = Logs.Src.create "dgr.reducer" ~doc:"distributed graph reduction"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  graph : Graph.t;
  mut : Mutator.t;
  templates : Template.registry;
  send : Task.red_sink;
  speculate_if : bool;
  speculation_reserve : int;
  recorder : Dgr_obs.Recorder.t option;
  parked : int Dgr_util.Vec.t;
  mutable result : Label.value option;
  mutable requests_executed : int;
  mutable responds_executed : int;
  mutable cancels_executed : int;
  mutable expansions : int;
  mutable rewrites : int;
  mutable stale_dropped : int;
  mutable alloc_stalls : int;
  mutable stuck : (Vid.t * string) list;
  mutable stuck_set : (Vid.t, unit) Hashtbl.t option;
      (* membership index over [stuck], built at the first stuck vertex:
         the barrier's absorb tests every newly stuck vertex against the
         whole machine's list *)
  mutable rq_scratch : int array;
      (* reusable snapshot of one vertex's raw request rows (stride 3:
         who|-1, demand code, key) — lets the rewrite hot paths walk
         [requested] without building the entry list *)
  mutable vids : int array;
      (* scratch for the slot vids of one template expansion *)
}

let create ?(speculate_if = true) ?(speculation_reserve = 0) ?recorder ~graph ~mut
    ~templates ~send () =
  {
    graph;
    mut;
    templates;
    send;
    speculate_if;
    speculation_reserve;
    recorder;
    parked = Dgr_util.Vec.create ();
    result = None;
    requests_executed = 0;
    responds_executed = 0;
    cancels_executed = 0;
    expansions = 0;
    rewrites = 0;
    stale_dropped = 0;
    alloc_stalls = 0;
    stuck = [];
    stuck_set = None;
    rq_scratch = Array.make 24 0;
    vids = Array.make 16 (-1);
  }

let initial_task t =
  let root = Graph.root t.graph in
  Task.request root Demand.Vital

let finished t = Option.is_some t.result

let stale t = t.stale_dropped <- t.stale_dropped + 1

(* First report wins; [stuck] keeps report order (newest first). *)
let add_stuck t v reason =
  let set =
    match t.stuck_set with
    | Some set -> set
    | None ->
      let set = Hashtbl.create 16 in
      t.stuck_set <- Some set;
      set
  in
  let fresh = not (Hashtbl.mem set v) in
  if fresh then begin
    Hashtbl.replace set v ();
    t.stuck <- (v, reason) :: t.stuck
  end;
  fresh

let mark_stuck t v reason =
  if add_stuck t v reason then Log.warn (fun m -> m "v%d stuck: %s (behaves as ⊥)" v reason)

(* Sends, as lanes ([Task.red_sink]): [src] of a request and [dst] of a
   response are -1 for the external requester. *)
let send_request t ~src ~dst ~demand ~key =
  t.send (Task.head ~kind:Task.red_request ~demand ~vtag:0) src dst key 0 ""

let cancel_head = Task.head ~kind:Task.red_cancel ~demand:Demand.Vital ~vtag:0

let send_cancel t ~src ~dst = t.send cancel_head src dst (-1) 0 ""

(* Answer [dst] with the value of [v]'s WHNF [label], built from the
   label without the value. *)
let respond_label t ~src:v ~dst ~key ~demand label =
  t.send
    (Task.head ~kind:Task.red_respond ~demand ~vtag:(Task.label_vtag label))
    v dst key (Task.label_pay ~self:v label) (Task.label_err label)

(* Demand all strict arguments (first-demand path of Prim). The graph
   records the {e relative} request type (strict args are vitally
   requested, §3.2/Fig 5-1); the spawned tasks carry the {e global} class
   [ctx] — a task spawned on behalf of an eager computation is itself
   eager ("an initially eager task may expand into a highly parallel
   workload of many other tasks"). *)
let demand_own_args t v vx ~ctx =
  let n = Vertex.arg_count vx in
  for i = 0 to n - 1 do
    let c = Vertex.arg vx i in
    let dup = ref false in
    for j = 0 to i - 1 do
      if Vid.equal (Vertex.arg vx j) c then dup := true
    done;
    if not !dup then begin
      Mutator.request_child t.mut ~v ~c ~demand:Demand.Vital;
      send_request t ~src:v ~dst:c ~demand:ctx ~key:c
    end
  done

(* True when an existing requester already makes [v] globally vital. *)
let has_vital_requester vx = Vertex.has_vital_requester vx

(* Eager → vital upgrade (§3.2 item 2): re-demand vitally every req-arg
   still awaiting its value, once each, in [Vertex.req_args] order, so
   the whole speculative subcomputation is promoted. *)
let redemand_vital t v vx =
  for i = 0 to Vertex.req_count vx - 1 do
    let c = Vertex.req_arg_at vx i in
    let dup = ref false in
    for j = 0 to i - 1 do
      if Vid.equal (Vertex.req_arg_at vx j) c then dup := true
    done;
    if (not !dup) && not (Vertex.has_value vx c) then
      send_request t ~src:v ~dst:c ~demand:Demand.Vital ~key:c
  done

let rq_snapshot t vx =
  let n = Vertex.requested_count vx in
  if 3 * n > Array.length t.rq_scratch then t.rq_scratch <- Array.make (6 * (n + 1)) 0;
  Vertex.blit_requests vx t.rq_scratch

(* Answer every requester of [v] with the value of its WHNF [label] and
   forget them. The rows are snapshotted into the scratch buffer and
   walked newest-first, matching the order of the old [requested] list
   view. *)
let answer_all t v label =
  let vx = Graph.vertex t.graph v in
  let k = rq_snapshot t vx in
  let scratch = t.rq_scratch in
  for i = k - 1 downto 0 do
    let demand = if scratch.((3 * i) + 1) = 0 then Demand.Eager else Demand.Vital in
    respond_label t ~src:v ~dst:scratch.(3 * i) ~key:scratch.((3 * i) + 2) ~demand label
  done;
  (* [answer] removes all entries of a requester at once; answer each
     distinct requester exactly once, at its last row — the same order
     the old fold-and-prepend dedup produced. *)
  for i = 0 to k - 1 do
    let w = scratch.(3 * i) in
    let last = ref true in
    for j = i + 1 to k - 1 do
      if scratch.(3 * j) = w then last := false
    done;
    if !last then Mutator.answer t.mut ~at:v ~who:w
  done

(* Forward every pending requester of the indirection [v] to [target].
   The forwarded demand is also recorded on the edge v→target itself
   (request-type, Fig 5-1): demand has really propagated through [v], and
   M_R must see the path as requested or it would classify everything
   below an indirection as reserve. *)
let forward_requesters t v target =
  let vx = Graph.vertex t.graph v in
  if Vertex.requested_count vx > 0 then begin
    let demand = if has_vital_requester vx then Demand.Vital else Demand.Eager in
    Mutator.request_child t.mut ~v ~c:target ~demand
  end;
  let k = rq_snapshot t vx in
  let scratch = t.rq_scratch in
  for i = k - 1 downto 0 do
    let demand = if scratch.((3 * i) + 1) = 0 then Demand.Eager else Demand.Vital in
    send_request t ~src:scratch.(3 * i) ~dst:target ~demand ~key:scratch.((3 * i) + 2)
  done;
  Vertex.clear_requesters vx

let bool_label b = if b then Label.Bool true else Label.Bool false

(* Rewrite [v] to a scalar/WHNF label: answer requesters, drop argument
   references (the contraction that creates garbage), clear state. *)
let finish_value t v label =
  let vx = Graph.vertex t.graph v in
  Vertex.set_label vx @@ label;
  t.rewrites <- t.rewrites + 1;
  answer_all t v label;
  (* [delete_reference] removes the first occurrence, so draining from the
     front deletes the children in the same order the old list walk did. *)
  while Vertex.arg_count vx > 0 do
    Mutator.delete_reference t.mut ~a:v ~b:(Vertex.arg vx 0)
  done;
  Vertex.clear_reduction_state vx

(* Rewrite [v] to an indirection onto its (sole remaining) child [target],
   forwarding all pending demand. *)
let become_indirection t v target =
  let vx = Graph.vertex t.graph v in
  Vertex.set_label vx @@ Label.Ind;
  t.rewrites <- t.rewrites + 1;
  forward_requesters t v target;
  Vertex.clear_reduction_state vx

let truthy = function
  | Label.V_bool b -> b
  | Label.V_int n -> n <> 0
  | Label.V_nil | Label.V_ref _ | Label.V_err _ -> false

(* --- primitive evaluation ------------------------------------------- *)

(* Formatted on the error path only, never per primitive reduction. *)
let type_error p = Printf.sprintf "type error in %s" (Label.prim_name p)

(* The value [vx] received from its [i]-th arg; the caller has checked
   that it arrived. *)
let arg_value vx i = Vertex.recv_value vx (Vertex.recv_index vx (Vertex.arg vx i))

(* The first of [vx]'s [n] arg values, from the [i]-th on, that is a
   ⊥-recovery error, or -1. *)
let rec first_err vx n i =
  if i >= n then -1
  else match arg_value vx i with Label.V_err _ -> i | _ -> first_err vx n (i + 1)

(* Rewrite [v] by the strict primitive [p] on its argument values [a]
   and [b] ([b] is [a] for a unary [p]), or mark it stuck. *)
let eval_scalar t v p a b =
  let module L = Label in
  match (p, a, b) with
  | (L.Add | L.Sub | L.Mul | L.Div | L.Mod), L.V_int x, L.V_int y -> (
    match p with
    | L.Add -> finish_value t v (L.Int (x + y))
    | L.Sub -> finish_value t v (L.Int (x - y))
    | L.Mul -> finish_value t v (L.Int (x * y))
    | L.Div ->
      if y = 0 then mark_stuck t v "division by zero" else finish_value t v (L.Int (x / y))
    | L.Mod ->
      if y = 0 then mark_stuck t v "modulo by zero" else finish_value t v (L.Int (x mod y))
    | _ -> assert false)
  | (L.Lt | L.Leq), L.V_int x, L.V_int y ->
    finish_value t v (bool_label (if p = L.Lt then x < y else x <= y))
  | L.Eq, _, _ -> finish_value t v (bool_label (L.equal_value a b))
  | (L.And | L.Or), L.V_bool x, L.V_bool y ->
    finish_value t v (bool_label (if p = L.And then x && y else x || y))
  | L.Not, L.V_bool x, _ -> finish_value t v (bool_label (not x))
  | L.Neg, L.V_int x, _ -> finish_value t v (L.Int (-x))
  | L.Is_nil, _, _ -> finish_value t v (bool_label (a = L.V_nil))
  | (L.Add | L.Sub | L.Mul | L.Div | L.Mod | L.Lt | L.Leq | L.And | L.Or | L.Not | L.Neg), _, _
    ->
    mark_stuck t v (type_error p)
  | (L.Head | L.Tail), _, _ -> assert false (* handled structurally *)

(* --- task execution -------------------------------------------------- *)

let rec exec_request t ~head ~src:s ~dst:v ~key =
  t.requests_executed <- t.requests_executed + 1;
  let demand = Task.head_demand head in
  let vx = Graph.vertex t.graph v in
  if (Vertex.free vx) then stale t
  else
    match (Vertex.label vx) with
    | (Label.Int _ | Label.Bool _ | Label.Nil | Label.Cons | Label.Err _) as l ->
      respond_label t ~src:v ~dst:s ~key ~demand l
    | Label.Ind ->
      if Vertex.arg_count vx > 0 then begin
        let target = Vertex.arg vx 0 in
        (* Record the forwarded demand on the edge so the marking process
           sees the path as requested (never downgrades). *)
        Mutator.request_child t.mut ~v ~c:target ~demand;
        send_request t ~src:s ~dst:target ~demand ~key
      end
      else begin
        mark_stuck t v "dangling indirection";
        Mutator.record_request t.mut ~at:v ~who:s ~demand ~key
      end
    | Label.Bottom -> Mutator.record_request t.mut ~at:v ~who:s ~demand ~key
    | Label.Param _ | Label.Freed ->
      mark_stuck t v "request on template parameter or freed vertex";
      stale t
    | Label.Prim p ->
      let first = Vertex.req_count vx = 0 in
      let was_vital = has_vital_requester vx in
      Mutator.record_request t.mut ~at:v ~who:s ~demand ~key;
      if first then begin
        if Vertex.arg_count vx <> Label.prim_arity p then
          mark_stuck t v
            (Printf.sprintf "%s applied to %d args (arity %d)" (Label.prim_name p)
               (Vertex.arg_count vx) (Label.prim_arity p))
        else demand_own_args t v vx ~ctx:demand
      end
      else if Demand.equal demand Demand.Vital && not was_vital then redemand_vital t v vx
    | Label.If ->
      let was_vital = has_vital_requester vx in
      Mutator.record_request t.mut ~at:v ~who:s ~demand ~key;
      let n = Vertex.arg_count vx in
      if n = 3 && Vertex.req_count vx = 0 then begin
        let p = Vertex.arg vx 0 and th = Vertex.arg vx 1 and el = Vertex.arg vx 2 in
        Mutator.request_child t.mut ~v ~c:p ~demand:Demand.Vital;
        send_request t ~src:v ~dst:p ~demand ~key:p;
        if t.speculate_if then begin
          Mutator.request_child t.mut ~v ~c:th ~demand:Demand.Eager;
          send_request t ~src:v ~dst:th ~demand:Demand.Eager ~key:th;
          Mutator.request_child t.mut ~v ~c:el ~demand:Demand.Eager;
          send_request t ~src:v ~dst:el ~demand:Demand.Eager ~key:el
        end
      end
      else if n = 3 || n = 1 then begin
        if Demand.equal demand Demand.Vital && not was_vital then redemand_vital t v vx
        (* else: demand already in flight *)
      end
      else mark_stuck t v "malformed if"
    | Label.Apply f -> (
      Mutator.record_request t.mut ~at:v ~who:s ~demand ~key;
      match Template.lookup t.templates f with
      | exception Not_found -> mark_stuck t v (Printf.sprintf "unknown function %s" f)
      | tpl ->
        if Vertex.arg_count vx <> tpl.Template.arity then
          mark_stuck t v
            (Printf.sprintf "%s applied to %d args (arity %d)" f (Vertex.arg_count vx)
               tpl.Template.arity)
        else if
          (* V is finite (§2.2): expansion draws vertices from F, and
             eager work is "resources permitting" (§3.2) — a non-vital
             expansion must leave [speculation_reserve] slots free so
             speculation can never starve the vital computation of
             memory. Class = destination's global priority when a cycle
             has classified it, else the source's, else the relative
             demand. *)
          let cls =
            match demand with
            | Demand.Vital ->
              (* A vital-flagged task is never blocked by a stale lower
                 verdict — upgrades travel by task between cycles. *)
              3
            | Demand.Eager -> (
              match (Vertex.sched_prior vx) with
              | 0 -> (
                if s >= 0 && Vertex.sched_prior (Graph.vertex t.graph s) > 0 then
                  Int.min (Vertex.sched_prior (Graph.vertex t.graph s)) 2
                else 2)
              | c -> c)
          in
          let need =
            Template.size tpl + if cls >= 3 then 0 else t.speculation_reserve
          in
          Graph.headroom_for t.graph ~pe:(Vertex.pe vx) < need
        then begin
          t.alloc_stalls <- t.alloc_stalls + 1;
          (match t.recorder with
          | None -> ()
          | Some r -> Dgr_obs.Recorder.emit r (Dgr_obs.Event.Alloc_stall { vid = v }));
          (* The task itself waits: the retry re-sends these very lanes,
             as of the generation it parked in (it was live when it ran). *)
          let p = t.parked in
          Dgr_util.Vec.push p head;
          Dgr_util.Vec.push p s;
          Dgr_util.Vec.push p v;
          Dgr_util.Vec.push p key;
          Dgr_util.Vec.push p (Graph.releases t.graph)
        end
        else begin
          if Array.length t.vids < Template.size tpl then
            t.vids <- Array.make (Template.size tpl) (-1);
          let entry = Template.expand tpl t.graph t.mut ~vids:t.vids vx in
          Mutator.expand_node t.mut ~a:v ~entry;
          Vertex.set_label vx @@ Label.Ind;
          t.expansions <- t.expansions + 1;
          (match t.recorder with
          | None -> ()
          | Some r -> Dgr_obs.Recorder.emit r (Dgr_obs.Event.Expand { vid = v; entry }));
          forward_requesters t v entry;
          Vertex.clear_reduction_state vx
        end)

(* The value is decoded only once the response is known to be live. *)
and exec_respond t ~head ~dst:r ~key ~pay ~err =
  t.responds_executed <- t.responds_executed + 1;
  if r < 0 then t.result <- Some (Task.value_of_lanes (Task.head_vtag head) pay err)
  else begin
    let vx = Graph.vertex t.graph r in
    if (Vertex.free vx) then stale t
    else if not (Vertex.is_req_arg vx key) then stale t
    else begin
      let value = Task.value_of_lanes (Task.head_vtag head) pay err in
      Vertex.record_value vx ~from:key value;
      match (Vertex.label vx) with
      | Label.Prim p -> try_reduce_prim t r p
      | Label.If -> progress_if t r ~key ~value
      | Label.Int _ | Label.Bool _ | Label.Nil | Label.Cons | Label.Ind | Label.Apply _
      | Label.Bottom | Label.Err _ | Label.Param _ | Label.Freed ->
        stale t
    end
  end

and try_reduce_prim t v p =
  let vx = Graph.vertex t.graph v in
  let n = Vertex.arg_count vx in
  let ready = ref true in
  for i = 0 to n - 1 do
    if not (Vertex.has_value vx (Vertex.arg vx i)) then ready := false
  done;
  if !ready then begin
    match p with
    | Label.Head | Label.Tail ->
      if n <> 1 then mark_stuck t v (Label.prim_name p ^ " arity error")
      else (
        match arg_value vx 0 with
        | Label.V_ref cell -> reduce_projection t v p cell
        | _ -> mark_stuck t v (Label.prim_name p ^ " of a non-list value"))
    | _ ->
      (* ⊥-recovery values are contagious through strict operators
         (footnote 5): the requester learns its input was undefined. *)
      let e = first_err vx n 0 in
      if e >= 0 then
        match arg_value vx e with
        | Label.V_err msg -> finish_value t v (Label.Err msg)
        | _ -> assert false
      else if n <> Label.prim_arity p then
        mark_stuck t v (Printf.sprintf "arity error in %s" (Label.prim_name p))
      else eval_scalar t v p (arg_value vx 0) (arg_value vx (n - 1))
  end

and reduce_projection t v p cell =
  let cx = Graph.vertex t.graph cell in
  match Vertex.label cx with
  | Label.Cons when Vertex.arg_count cx = 2 ->
    let target = Vertex.arg cx (match p with Label.Head -> 0 | _ -> 1) in
    let vx = Graph.vertex t.graph v in
    (* Rewire v → target. If the cons cell is v's direct child the paper's
       witnessed add-reference applies; otherwise the general edge. *)
    if Vertex.has_arg vx cell then
      Mutator.add_reference t.mut ~a:v ~b:cell ~c:target
    else Mutator.add_edge t.mut ~a:v ~c:target;
    (* Drop every old argument, keeping exactly the one new occurrence of
       [target] appended by the rewiring above: [delete_reference]
       removes the first occurrence, so draining from the front deletes
       them in order. *)
    for _ = 1 to Vertex.arg_count vx - 1 do
      Mutator.delete_reference t.mut ~a:v ~b:(Vertex.arg vx 0)
    done;
    become_indirection t v target
  | Label.Cons -> mark_stuck t v "malformed cons cell"
  | _ -> mark_stuck t v (Label.prim_name p ^ " of a non-cons vertex")

and progress_if t v ~key ~value =
  let vx = Graph.vertex t.graph v in
  let n = Vertex.arg_count vx in
  if n = 3 then begin
    let p = Vertex.arg vx 0 and th = Vertex.arg vx 1 and el = Vertex.arg vx 2 in
    if Vid.equal key p then begin
      match value with
      | Label.V_err msg ->
        (* an undefined predicate poisons the conditional: cancel both
           branches and propagate the error *)
        if Vertex.is_req_arg vx th then send_cancel t ~src:v ~dst:th;
        if Vertex.is_req_arg vx el then send_cancel t ~src:v ~dst:el;
        finish_value t v (Label.Err msg)
      | _ ->
        let chosen, other = if truthy value then (th, el) else (el, th) in
        (* Dereference the losing branch (§3.2): drop our reference and
           tell it to forget us. Irrelevant tasks under it keep running
           until a marking cycle releases their vertices, which makes
           them stale. *)
        let other_requested = Vertex.is_req_arg vx other in
        Mutator.delete_reference t.mut ~a:v ~b:other;
        if other_requested && not (Vid.equal other chosen) then
          send_cancel t ~src:v ~dst:other;
        Mutator.delete_reference t.mut ~a:v ~b:p;
        (match Vertex.recv_index vx chosen with
        | i when i >= 0 -> resolve_if t v chosen (Vertex.recv_value vx i)
        | _ ->
          (* The winner is now strictly needed relative to v; globally it
             is vital only if v itself is vitally awaited. *)
          Mutator.request_child t.mut ~v ~c:chosen ~demand:Demand.Vital;
          let ctx = if has_vital_requester vx then Demand.Vital else Demand.Eager in
          send_request t ~src:v ~dst:chosen ~demand:ctx ~key:chosen)
    end
    (* else: speculative branch value arrived first; cached *)
  end
  else if n = 1 && Vid.equal key (Vertex.arg vx 0) then resolve_if t v key value
  else stale t

and resolve_if t v chosen value =
  match value with
  | Label.V_int n -> finish_value t v (Label.Int n)
  | Label.V_bool b -> finish_value t v (bool_label b)
  | Label.V_nil -> finish_value t v Label.Nil
  | Label.V_err msg -> finish_value t v (Label.Err msg)
  | Label.V_ref _ -> become_indirection t v chosen

and exec_cancel t ~src:s ~dst:v =
  t.cancels_executed <- t.cancels_executed + 1;
  let vx = Graph.vertex t.graph v in
  if (Vertex.free vx) then stale t
  else begin
    Mutator.answer t.mut ~at:v ~who:s;
    match (Vertex.label vx) with
    | Label.Ind when Vertex.arg_count vx > 0 ->
      send_cancel t ~src:s ~dst:(Vertex.arg vx 0)
    | _ -> ()
  end

let execute t head s d key pay err =
  if head >= 0 then
    invalid_arg
      (Printf.sprintf "Reducer.execute: a marking task (meta %d in the head lane, src %d, dst %d)"
         head s d);
  (* Guarded: the message closure would be a heap block per task. *)
  (match Logs.Src.level src with
  | Some Logs.Debug ->
    Log.debug (fun m ->
        m "exec %a" Task.pp_reduction (Task.reduction_of_lanes head s d key pay err))
  | _ -> ());
  let kind = Task.head_kind head in
  if kind = Task.red_request then exec_request t ~head ~src:s ~dst:d ~key
  else if kind = Task.red_respond then exec_respond t ~head ~dst:d ~key ~pay ~err
  else exec_cancel t ~src:s ~dst:d

let execute_task t task =
  match task with
  | Marking _ ->
    invalid_arg (Printf.sprintf "Reducer.execute_task: a marking task, %s" (Task.to_string task))
  | Reduction r ->
    execute t (Task.red_head r) (Task.red_src r) (Task.red_dst r) (Task.red_key r)
      (Task.red_pay r) (Task.red_err r)

let park_lanes = 5

let parked_count t = Dgr_util.Vec.length t.parked / park_lanes

let iter_parked_rows t f =
  let a = Dgr_util.Vec.unsafe_data t.parked in
  for k = 0 to parked_count t - 1 do
    let i = park_lanes * k in
    f a.(i + 4) a.(i) a.(i + 1) a.(i + 2) a.(i + 3)
  done

let iter_parked t f =
  iter_parked_rows t (fun gen head s d key ->
      f gen (Reduction (Task.reduction_of_lanes head s d key 0 "")))

(* Fold a per-PE reducer's step-local effects into [t] and zero them.
   The sharded engine calls this at the barrier in ascending PE order, so
   the merged parked list and stuck set are independent of which shard
   ran which PE. Gated on the shard having done anything at all — the
   counters are non-negative, so one summed branch skips the whole fold
   for a PE that executed no reduction this step. *)
let absorb_dirty t src =
  t.requests_executed <- t.requests_executed + src.requests_executed;
  src.requests_executed <- 0;
  t.responds_executed <- t.responds_executed + src.responds_executed;
  src.responds_executed <- 0;
  t.cancels_executed <- t.cancels_executed + src.cancels_executed;
  src.cancels_executed <- 0;
  t.expansions <- t.expansions + src.expansions;
  src.expansions <- 0;
  t.rewrites <- t.rewrites + src.rewrites;
  src.rewrites <- 0;
  t.stale_dropped <- t.stale_dropped + src.stale_dropped;
  src.stale_dropped <- 0;
  t.alloc_stalls <- t.alloc_stalls + src.alloc_stalls;
  src.alloc_stalls <- 0;
  (match t.result with None -> t.result <- src.result | Some _ -> ());
  src.result <- None;
  for k = 0 to Dgr_util.Vec.length src.parked - 1 do
    Dgr_util.Vec.push t.parked (Dgr_util.Vec.get src.parked k)
  done;
  Dgr_util.Vec.clear src.parked;
  if not (List.is_empty src.stuck) then begin
    List.iter (fun (v, reason) -> ignore (add_stuck t v reason)) (List.rev src.stuck);
    src.stuck <- [];
    Option.iter Hashtbl.clear src.stuck_set
  end

let absorb t src =
  if
    src.requests_executed + src.responds_executed + src.cancels_executed
    + src.expansions + src.rewrites + src.stale_dropped + src.alloc_stalls <> 0
    || Option.is_some src.result
    || not (Dgr_util.Vec.is_empty src.parked)
    || not (List.is_empty src.stuck)
  then absorb_dirty t src
