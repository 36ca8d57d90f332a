open Dgr_graph
open Dgr_task
open Task
module Mutator = Dgr_core.Mutator

type reduction_task_vec = Task.reduction Dgr_util.Vec.t

let src = Logs.Src.create "dgr.reducer" ~doc:"distributed graph reduction"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  graph : Graph.t;
  mut : Mutator.t;
  templates : Template.registry;
  send : Task.t -> unit;
  speculate_if : bool;
  speculation_reserve : int;
  recorder : Dgr_obs.Recorder.t option;
  parked : reduction_task_vec;
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
  }

let obs t kind =
  match t.recorder with None -> () | Some r -> Dgr_obs.Recorder.emit r kind

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

let distinct vids =
  let rec loop seen = function
    | [] -> List.rev seen
    | v :: rest -> if List.exists (Vid.equal v) seen then loop seen rest else loop (v :: seen) rest
  in
  loop [] vids

let send_request t ~src:s ~dst ~demand ~key =
  t.send (Reduction (Request { src = s; dst; demand; key }))

let send_respond t ~src:s ~dst ~value ~key ~demand =
  t.send (Reduction (Respond { src = s; dst; value; key; demand }))

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
      send_request t ~src:(Some v) ~dst:c ~demand:ctx ~key:c
    end
  done

(* True when an existing requester already makes [v] globally vital. *)
let has_vital_requester vx = Vertex.has_vital_requester vx

let rq_snapshot t vx =
  let n = Vertex.requested_count vx in
  if 3 * n > Array.length t.rq_scratch then t.rq_scratch <- Array.make (6 * (n + 1)) 0;
  Vertex.blit_requests vx t.rq_scratch

(* Answer every requester of [v] with [value] and forget them. The rows
   are snapshotted into the scratch buffer and walked newest-first,
   matching the order of the old [requested] list view. *)
let answer_all t v value =
  let vx = Graph.vertex t.graph v in
  let k = rq_snapshot t vx in
  let scratch = t.rq_scratch in
  for i = k - 1 downto 0 do
    let w = scratch.(3 * i) in
    let dst = if w < 0 then None else Some w in
    let demand = if scratch.((3 * i) + 1) = 0 then Demand.Eager else Demand.Vital in
    send_respond t ~src:v ~dst ~value ~key:scratch.((3 * i) + 2) ~demand
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
    if !last then Mutator.answer t.mut ~at:v ~requester:(if w < 0 then None else Some w)
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
    let w = scratch.(3 * i) in
    let src = if w < 0 then None else Some w in
    let demand = if scratch.((3 * i) + 1) = 0 then Demand.Eager else Demand.Vital in
    send_request t ~src ~dst:target ~demand ~key:scratch.((3 * i) + 2)
  done;
  Vertex.clear_requesters vx

(* Rewrite [v] to a scalar/WHNF label: answer requesters, drop argument
   references (the contraction that creates garbage), clear state. *)
let finish_value t v label =
  let vx = Graph.vertex t.graph v in
  Vertex.set_label vx @@ label;
  t.rewrites <- t.rewrites + 1;
  (match Label.value_of_whnf ~self:v label with
  | Some value -> answer_all t v value
  | None -> assert false);
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
let type_error p = Error (Printf.sprintf "type error in %s" (Label.prim_name p))

let eval_scalar p values =
  let int_of = function Label.V_int n -> Some n | _ -> None in
  let bool_of = function Label.V_bool b -> Some b | _ -> None in
  let module L = Label in
  (* ⊥-recovery values are contagious through strict operators
     (footnote 5): the requester learns its input was undefined. *)
  let first_err =
    List.find_opt (function L.V_err _ -> true | _ -> false) values
  in
  match first_err with
  | Some (L.V_err msg) -> Ok (L.Err msg)
  | _ ->
  match (p, values) with
  | L.Add, [ a; b ] | L.Sub, [ a; b ] | L.Mul, [ a; b ] | L.Div, [ a; b ] | L.Mod, [ a; b ]
    -> (
    match (int_of a, int_of b) with
    | Some x, Some y -> (
      match p with
      | L.Add -> Ok (L.Int (x + y))
      | L.Sub -> Ok (L.Int (x - y))
      | L.Mul -> Ok (L.Int (x * y))
      | L.Div -> if y = 0 then Error "division by zero" else Ok (L.Int (x / y))
      | L.Mod -> if y = 0 then Error "modulo by zero" else Ok (L.Int (x mod y))
      | _ -> assert false)
    | _ -> type_error p)
  | L.Lt, [ a; b ] | L.Leq, [ a; b ] -> (
    match (int_of a, int_of b) with
    | Some x, Some y -> Ok (L.Bool (if p = L.Lt then x < y else x <= y))
    | _ -> type_error p)
  | L.Eq, [ a; b ] -> Ok (L.Bool (L.equal_value a b))
  | L.And, [ a; b ] | L.Or, [ a; b ] -> (
    match (bool_of a, bool_of b) with
    | Some x, Some y -> Ok (L.Bool (if p = L.And then x && y else x || y))
    | _ -> type_error p)
  | L.Not, [ a ] -> (
    match bool_of a with Some x -> Ok (L.Bool (not x)) | None -> type_error p)
  | L.Neg, [ a ] -> ( match int_of a with Some x -> Ok (L.Int (-x)) | None -> type_error p)
  | L.Is_nil, [ a ] -> Ok (L.Bool (a = L.V_nil))
  | (L.Head | L.Tail), _ -> assert false (* handled structurally *)
  | _, _ -> Error (Printf.sprintf "arity error in %s" (L.prim_name p))

(* --- task execution -------------------------------------------------- *)

let rec exec_request t ~src:s ~dst:v ~demand ~key =
  t.requests_executed <- t.requests_executed + 1;
  let vx = Graph.vertex t.graph v in
  if (Vertex.free vx) then stale t
  else
    match (Vertex.label vx) with
    | (Label.Int _ | Label.Bool _ | Label.Nil | Label.Cons | Label.Err _) as l ->
      let value = Option.get (Label.value_of_whnf ~self:v l) in
      send_respond t ~src:v ~dst:s ~value ~key ~demand
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
        Mutator.record_request t.mut ~at:v ~requester:s ~demand ~key
      end
    | Label.Bottom -> Mutator.record_request t.mut ~at:v ~requester:s ~demand ~key
    | Label.Param _ | Label.Freed ->
      mark_stuck t v "request on template parameter or freed vertex";
      stale t
    | Label.Prim p ->
      let first = Vertex.req_count vx = 0 in
      let was_vital = has_vital_requester vx in
      Mutator.record_request t.mut ~at:v ~requester:s ~demand ~key;
      if first then begin
        if Vertex.arg_count vx <> Label.prim_arity p then
          mark_stuck t v
            (Printf.sprintf "%s applied to %d args (arity %d)" (Label.prim_name p)
               (Vertex.arg_count vx) (Label.prim_arity p))
        else demand_own_args t v vx ~ctx:demand
      end
      else if Demand.equal demand Demand.Vital && not was_vital then
        (* Eager → vital upgrade (§3.2 item 2): re-demand the pending
           arguments vitally so the whole speculative subcomputation is
           promoted. *)
        List.iter
          (fun c ->
            if Vertex.value_from vx c = None then
              send_request t ~src:(Some v) ~dst:c ~demand:Demand.Vital ~key:c)
          (distinct (Vertex.req_args vx))
    | Label.If ->
      let was_vital = has_vital_requester vx in
      Mutator.record_request t.mut ~at:v ~requester:s ~demand ~key;
      let n = Vertex.arg_count vx in
      if n = 3 && Vertex.req_count vx = 0 then begin
        let p = Vertex.arg vx 0 and th = Vertex.arg vx 1 and el = Vertex.arg vx 2 in
        Mutator.request_child t.mut ~v ~c:p ~demand:Demand.Vital;
        send_request t ~src:(Some v) ~dst:p ~demand ~key:p;
        if t.speculate_if then begin
          Mutator.request_child t.mut ~v ~c:th ~demand:Demand.Eager;
          send_request t ~src:(Some v) ~dst:th ~demand:Demand.Eager ~key:th;
          Mutator.request_child t.mut ~v ~c:el ~demand:Demand.Eager;
          send_request t ~src:(Some v) ~dst:el ~demand:Demand.Eager ~key:el
        end
      end
      else if n = 3 || n = 1 then begin
        if Demand.equal demand Demand.Vital && not was_vital then
          (* Upgrade: re-demand whatever we are still waiting on. *)
          List.iter
            (fun c ->
              if Vertex.value_from vx c = None then
                send_request t ~src:(Some v) ~dst:c ~demand:Demand.Vital ~key:c)
            (distinct (Vertex.req_args vx))
        (* else: demand already in flight *)
      end
      else mark_stuck t v "malformed if"
    | Label.Apply f -> (
      Mutator.record_request t.mut ~at:v ~requester:s ~demand ~key;
      match Template.find t.templates f with
      | None -> mark_stuck t v (Printf.sprintf "unknown function %s" f)
      | Some tpl ->
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
                match s with
                | Some src_v when (Vertex.sched_prior (Graph.vertex t.graph src_v)) > 0 ->
                  Int.min (Vertex.sched_prior (Graph.vertex t.graph src_v)) 2
                | Some _ | None -> 2)
              | c -> c)
          in
          let need =
            Template.size tpl + if cls >= 3 then 0 else t.speculation_reserve
          in
          Graph.headroom_for t.graph ~pe:(Vertex.pe vx) < need
        then begin
          t.alloc_stalls <- t.alloc_stalls + 1;
          obs t (Dgr_obs.Event.Alloc_stall { vid = v });
          Dgr_util.Vec.push t.parked (Request { src = s; dst = v; demand; key })
        end
        else begin
          let entry =
            Template.instantiate ~from:(Vertex.pe vx) tpl t.graph t.mut
              ~actuals:(Vertex.args vx)
          in
          Mutator.expand_node t.mut ~a:v ~entry;
          Vertex.set_label vx @@ Label.Ind;
          t.expansions <- t.expansions + 1;
          obs t (Dgr_obs.Event.Expand { vid = v; entry });
          forward_requesters t v entry;
          Vertex.clear_reduction_state vx
        end)

and exec_respond t ~src:responder ~dst ~value ~key =
  t.responds_executed <- t.responds_executed + 1;
  match dst with
  | None -> t.result <- Some value
  | Some r -> (
    let vx = Graph.vertex t.graph r in
    if (Vertex.free vx) then stale t
    else if not (Vertex.is_req_arg vx key) then stale t
    else begin
      Vertex.record_value vx ~from:key value;
      match (Vertex.label vx) with
      | Label.Prim p -> try_reduce_prim t r p
      | Label.If -> progress_if t r ~key ~value
      | Label.Int _ | Label.Bool _ | Label.Nil | Label.Cons | Label.Ind | Label.Apply _
      | Label.Bottom | Label.Err _ | Label.Param _ | Label.Freed ->
        stale t
    end);
  ignore responder

and try_reduce_prim t v p =
  let vx = Graph.vertex t.graph v in
  let ready = ref true in
  for i = 0 to Vertex.arg_count vx - 1 do
    if not (Vertex.has_value vx (Vertex.arg vx i)) then ready := false
  done;
  if !ready then begin
    match p with
    | Label.Head | Label.Tail -> (
      match List.map (fun c -> Option.get (Vertex.value_from vx c)) (Vertex.args vx) with
      | [ Label.V_ref cell ] -> reduce_projection t v p cell
      | [ _ ] -> mark_stuck t v (Label.prim_name p ^ " of a non-list value")
      | _ -> mark_stuck t v (Label.prim_name p ^ " arity error"))
    | _ -> (
      let values = List.map (fun c -> Option.get (Vertex.value_from vx c)) (Vertex.args vx) in
      match eval_scalar p values with
      | Ok label -> finish_value t v label
      | Error reason -> mark_stuck t v reason)
  end

and reduce_projection t v p cell =
  let cx = Graph.vertex t.graph cell in
  match ((Vertex.label cx), Vertex.args cx) with
  | Label.Cons, [ hd; tl ] ->
    let target = match p with Label.Head -> hd | _ -> tl in
    let vx = Graph.vertex t.graph v in
    (* Rewire v → target. If the cons cell is v's direct child the paper's
       witnessed add-reference applies; otherwise the general edge. *)
    if Vertex.has_arg vx cell then
      Mutator.add_reference t.mut ~a:v ~b:cell ~c:target
    else Mutator.add_edge t.mut ~a:v ~c:target;
    (* Drop every old argument, keeping exactly the one new occurrence of
       [target] appended by the rewiring above. *)
    let va = Vertex.args vx in
    let olds = List.filteri (fun i _ -> i < List.length va - 1) va in
    List.iter (fun c -> Mutator.delete_reference t.mut ~a:v ~b:c) olds;
    become_indirection t v target
  | Label.Cons, _ -> mark_stuck t v "malformed cons cell"
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
        if Vertex.is_req_arg vx th then t.send (Reduction (Cancel { src = v; dst = th }));
        if Vertex.is_req_arg vx el then t.send (Reduction (Cancel { src = v; dst = el }));
        finish_value t v (Label.Err msg)
      | _ ->
        let chosen, other = if truthy value then (th, el) else (el, th) in
        (* Dereference the losing branch (§3.2): drop our reference and
           tell it to forget us. Irrelevant tasks under it keep running
           until a marking cycle expunges them. *)
        let other_requested = Vertex.is_req_arg vx other in
        Mutator.delete_reference t.mut ~a:v ~b:other;
        if other_requested && not (Vid.equal other chosen) then
          t.send (Reduction (Cancel { src = v; dst = other }));
        Mutator.delete_reference t.mut ~a:v ~b:p;
        (match Vertex.value_from vx chosen with
        | Some cv -> resolve_if t v chosen cv
        | None ->
          (* The winner is now strictly needed relative to v; globally it
             is vital only if v itself is vitally awaited. *)
          Mutator.request_child t.mut ~v ~c:chosen ~demand:Demand.Vital;
          let ctx = if has_vital_requester vx then Demand.Vital else Demand.Eager in
          send_request t ~src:(Some v) ~dst:chosen ~demand:ctx ~key:chosen)
    end
    (* else: speculative branch value arrived first; cached *)
  end
  else if n = 1 && Vid.equal key (Vertex.arg vx 0) then resolve_if t v key value
  else stale t

and resolve_if t v chosen value =
  match value with
  | Label.V_int n -> finish_value t v (Label.Int n)
  | Label.V_bool b -> finish_value t v (Label.Bool b)
  | Label.V_nil -> finish_value t v Label.Nil
  | Label.V_err msg -> finish_value t v (Label.Err msg)
  | Label.V_ref _ -> become_indirection t v chosen

and exec_cancel t ~src:s ~dst:v =
  t.cancels_executed <- t.cancels_executed + 1;
  let vx = Graph.vertex t.graph v in
  if (Vertex.free vx) then stale t
  else begin
    Mutator.answer t.mut ~at:v ~requester:(Some s);
    match (Vertex.label vx) with
    | Label.Ind when Vertex.arg_count vx > 0 ->
      t.send (Reduction (Cancel { src = s; dst = Vertex.arg vx 0 }))
    | _ -> ()
  end

let execute t task =
  Log.debug (fun m -> m "exec %a" Task.pp_reduction task);
  match task with
  | Request { src = s; dst; demand; key } -> exec_request t ~src:s ~dst ~demand ~key
  | Respond { src = s; dst; value; key; demand = _ } -> exec_respond t ~src:s ~dst ~value ~key
  | Cancel { src = s; dst } -> exec_cancel t ~src:s ~dst


let parked t = Dgr_util.Vec.to_list t.parked

let iter_parked t f = Dgr_util.Vec.iter f t.parked

let parked_count t = Dgr_util.Vec.length t.parked

let drain_parked t =
  let tasks = Dgr_util.Vec.to_list t.parked in
  Dgr_util.Vec.clear t.parked;
  tasks

let purge_parked t pred =
  let before = Dgr_util.Vec.length t.parked in
  Dgr_util.Vec.filter_in_place (fun task -> not (pred task)) t.parked;
  before - Dgr_util.Vec.length t.parked

(* Fold a per-PE reducer's step-local effects into [t] and zero them.
   The sharded engine calls this at the barrier in ascending PE order, so
   the merged parked list and stuck set are independent of which domain
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
