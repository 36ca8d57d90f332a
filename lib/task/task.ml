(* shared graph vocabulary *)
open Dgr_graph

type reduction =
  | Request of { src : Vertex.requester; dst : Vid.t; demand : Demand.t; key : Vid.t }
  | Respond of {
      src : Vid.t;
      dst : Vertex.requester;
      value : Label.value;
      key : Vid.t;
      demand : Demand.t;
    }
  | Cancel of { src : Vid.t; dst : Vid.t }

(* Every mark task is tagged with the wave ([Graph.wave]) that spawned
   it. With overlapping cycles, a task from wave N can still be in a
   pool or in flight after wave N+1 opened its plane; the executor
   compares [ep] against the handler's wave and drops stale tasks
   instead of crediting them to the wrong marking process: marks from
   different waves are distinct tasks even when every other field
   matches. *)
type mark =
  | Mark1 of { v : Vid.t; par : Plane.parent; ep : int }
  | Mark2 of { v : Vid.t; par : Plane.parent; prior : int; ep : int }
  | Mark3 of { v : Vid.t; par : Plane.parent; ep : int }
  | Return of { plane : Plane.id; par : Plane.parent; ep : int }

type t = Reduction of reduction | Marking of mark

let exec_vertex = function
  | Reduction (Request { dst; _ }) -> Some dst
  | Reduction (Respond { dst; _ }) -> dst
  | Reduction (Cancel { dst; _ }) -> Some dst
  | Marking (Mark1 { v; _ } | Mark2 { v; _ } | Mark3 { v; _ }) -> Some v
  | Marking (Return { par = Plane.Parent v; _ }) -> Some v
  | Marking (Return { par = Plane.Rootpar; _ }) -> None

(* [exec_vertex] without the option box, for the per-send hot path. *)
let exec_vid = function
  | Reduction (Request { dst; _ }) -> dst
  | Reduction (Respond { dst = Some d; _ }) -> d
  | Reduction (Respond { dst = None; _ }) -> -1
  | Reduction (Cancel { dst; _ }) -> dst
  | Marking (Mark1 { v; _ } | Mark2 { v; _ } | Mark3 { v; _ }) -> v
  | Marking (Return { par = Plane.Parent v; _ }) -> v
  | Marking (Return { par = Plane.Rootpar; _ }) -> -1

let reduction_endpoints = function
  | Request { src; dst; _ } -> ( match src with Some s -> [ s; dst ] | None -> [ dst ])
  | Respond { src; dst; _ } -> ( match dst with Some d -> [ src; d ] | None -> [ src ])
  | Cancel { src; dst } -> [ src; dst ]

(* Allocation-free variants of [reduction_endpoints] for the hot callers
   (M_T seeding visits every pending task; RC purges run per step). *)
let iter_reduction_endpoints f = function
  | Request { src; dst; _ } ->
    (match src with Some s -> f s | None -> ());
    f dst
  | Respond { src; dst; _ } -> (
    f src;
    match dst with Some d -> f d | None -> ())
  | Cancel { src; dst } ->
    f src;
    f dst

let reduction_endpoint_exists p = function
  | Request { src; dst; _ } ->
    (match src with Some s -> p s | None -> false) || p dst
  | Respond { src; dst; _ } ->
    p src || (match dst with Some d -> p d | None -> false)
  | Cancel { src; dst } -> p src || p dst

let plane_of_mark = function
  | Mark1 _ | Mark2 _ -> Plane.MR
  | Mark3 _ -> Plane.MT
  | Return { plane; _ } -> plane

let obs_kind = function
  | Reduction (Request _) -> Dgr_obs.Event.Request
  | Reduction (Respond _) -> Dgr_obs.Event.Respond
  | Reduction (Cancel _) -> Dgr_obs.Event.Cancel
  | Marking (Mark1 _ | Mark2 _ | Mark3 _) -> Dgr_obs.Event.Mark
  | Marking (Return _) -> Dgr_obs.Event.Return_mark

let is_marking = function Marking _ -> true | Reduction _ -> false

let is_reduction = function Reduction _ -> true | Marking _ -> false

let request ?src ?key dst demand =
  let key = match key with Some k -> k | None -> dst in
  Reduction (Request { src; dst; demand; key })

let respond ~src ~key ?(demand = Demand.Vital) dst value =
  Reduction (Respond { src; dst; value; key; demand })

let pp_requester fmt = function
  | Some v -> Vid.pp fmt v
  | None -> Format.pp_print_string fmt "-"

let pp_reduction fmt = function
  | Request { src; dst; demand; key } ->
    Format.fprintf fmt "request<%a,%a>%s[key=%a]" pp_requester src Vid.pp dst
      (match demand with Demand.Vital -> "!" | Demand.Eager -> "?")
      Vid.pp key
  | Respond { src; dst; value; key; demand } ->
    Format.fprintf fmt "respond<%a,%a>%s=%a[key=%a]" Vid.pp src pp_requester dst
      (match demand with Demand.Vital -> "!" | Demand.Eager -> "?")
      Label.pp_value value Vid.pp key
  | Cancel { src; dst } -> Format.fprintf fmt "cancel<%a,%a>" Vid.pp src Vid.pp dst

let mark_ep = function
  | Mark1 { ep; _ } | Mark2 { ep; _ } | Mark3 { ep; _ } | Return { ep; _ } -> ep

let pp_mark fmt = function
  | Mark1 { v; par; ep } ->
    Format.fprintf fmt "mark1<%a par=%a w%d>" Vid.pp v Plane.pp_parent par ep
  | Mark2 { v; par; prior; ep } ->
    Format.fprintf fmt "mark2<%a par=%a prio=%d w%d>" Vid.pp v Plane.pp_parent par prior ep
  | Mark3 { v; par; ep } ->
    Format.fprintf fmt "mark3<%a par=%a w%d>" Vid.pp v Plane.pp_parent par ep
  | Return { plane; par; ep } ->
    Format.fprintf fmt "return<%a to=%a w%d>" Plane.pp_id plane Plane.pp_parent par ep

let pp fmt = function
  | Reduction r -> pp_reduction fmt r
  | Marking m -> pp_mark fmt m

let to_string t = Format.asprintf "%a" pp t
