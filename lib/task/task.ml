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

let no_gen = -1

let after g gen v = v >= 0 && Graph.gen g v > gen

(* Without a release since the send (the common case) no endpoint is
   read. *)
let stale_lanes g gen src dst =
  gen >= 0 && gen < Graph.releases g && (after g gen src || after g gen dst)

let who = function Some v -> v | None -> -1

let requester v = if v < 0 then None else Some v

(* The two endpoint lanes of a reduction: -1 where there is none. *)
let red_src = function
  | Request { src; _ } -> who src
  | Respond { src; _ } | Cancel { src; _ } -> src

let red_dst = function
  | Request { dst; _ } | Cancel { dst; _ } -> dst
  | Respond { dst; _ } -> who dst

let stale g gen r = stale_lanes g gen (red_src r) (red_dst r)

(* Reduction lanes. The head packs the kind (bits 0-1), the demand (bit
   2, set for vital) and the value tag (bits 3 and up), complemented so
   it is always negative. *)
type red_sink = int -> int -> int -> int -> int -> string -> unit

let red_request = 0
let red_respond = 1
let red_cancel = 2

let v_int = 0
let v_bool = 1
let v_nil = 2
let v_ref = 3
let v_err = 4

let head ~kind ~demand ~vtag =
  lnot (kind lor (match demand with Demand.Vital -> 4 | Demand.Eager -> 0) lor (vtag lsl 3))

let head_kind h = lnot h land 3
let head_demand h = if lnot h land 4 <> 0 then Demand.Vital else Demand.Eager
let head_vtag h = lnot h lsr 3

let red_lanes = 7

let v_true = Label.V_bool true
let v_false = Label.V_bool false

let value_of_lanes vtag pay err =
  match vtag with
  | 0 -> Label.V_int pay
  | 1 -> if pay <> 0 then v_true else v_false
  | 2 -> Label.V_nil
  | 3 -> Label.V_ref pay
  | _ -> Label.V_err err

let value_vtag = function
  | Label.V_int _ -> v_int
  | Label.V_bool _ -> v_bool
  | Label.V_nil -> v_nil
  | Label.V_ref _ -> v_ref
  | Label.V_err _ -> v_err

let value_pay = function
  | Label.V_int n -> n
  | Label.V_bool b -> Bool.to_int b
  | Label.V_ref v -> v
  | Label.V_nil | Label.V_err _ -> 0

let value_err = function Label.V_err m -> m | _ -> ""

let label_vtag = function
  | Label.Int _ -> v_int
  | Label.Bool _ -> v_bool
  | Label.Nil -> v_nil
  | Label.Cons -> v_ref
  | Label.Err _ -> v_err
  | Label.Prim _ | Label.If | Label.Apply _ | Label.Ind | Label.Bottom | Label.Param _
  | Label.Freed ->
    invalid_arg "Task.label_vtag: not in weak head normal form"

let label_pay ~self = function
  | Label.Int n -> n
  | Label.Bool b -> Bool.to_int b
  | Label.Cons -> self
  | _ -> 0

let label_err = function Label.Err m -> m | _ -> ""

let reduction_of_lanes head src dst key pay err =
  match head_kind head with
  | 0 -> Request { src = requester src; dst; demand = head_demand head; key }
  | 1 ->
    Respond
      {
        src;
        dst = requester dst;
        value = value_of_lanes (head_vtag head) pay err;
        key;
        demand = head_demand head;
      }
  | _ -> Cancel { src; dst }

let red_head = function
  | Request { demand; _ } -> head ~kind:red_request ~demand ~vtag:0
  | Respond { value; demand; _ } -> head ~kind:red_respond ~demand ~vtag:(value_vtag value)
  | Cancel _ -> head ~kind:red_cancel ~demand:Demand.Vital ~vtag:0

let red_key = function Request { key; _ } | Respond { key; _ } -> key | Cancel _ -> -1

let red_pay = function Respond { value; _ } -> value_pay value | Request _ | Cancel _ -> 0

let red_err = function Respond { value; _ } -> value_err value | Request _ | Cancel _ -> ""

let reduction_of_row a i err =
  reduction_of_lanes a.(i + 2) a.(i) a.(i + 1) a.(i + 3) a.(i + 4) err

let obs_kind_of_head h =
  match head_kind h with
  | 0 -> Dgr_obs.Event.Request
  | 1 -> Dgr_obs.Event.Respond
  | _ -> Dgr_obs.Event.Cancel

(* Mark lanes. A mark travels as three ints: [v] (the target, -1 for a
   return), [par] (the parent vid, -1 for Rootpar) and [meta], which packs
   kind (bits 0-1), plane (bit 2), prior (bits 3-4) and the wave (bits 5
   and up). [meta] is never negative, so a lane slot holding -1 can stand
   for "not a mark". *)
type sink = int -> int -> int -> unit

let kind_mark1 = 0
let kind_mark2 = 1
let kind_mark3 = 2
let kind_return = 3

let plane_bit = function Plane.MR -> 0 | Plane.MT -> 4

let meta ~kind ~plane ~prior ~ep =
  if ep < 0 || prior land lnot 3 <> 0 then
    invalid_arg (Printf.sprintf "Task.meta: prior %d / wave %d out of range" prior ep);
  (ep lsl 5) lor (prior lsl 3) lor plane_bit plane lor kind

let meta_kind m = m land 3
let meta_plane m = if m land 4 = 0 then Plane.MR else Plane.MT
let meta_prior m = (m lsr 3) land 3
let meta_ep m = m lsr 5
let is_return m = m land 3 = kind_return

let lanes_exec_vid v par m = if is_return m then par else v

let lane_v = function
  | Mark1 { v; _ } | Mark2 { v; _ } | Mark3 { v; _ } -> v
  | Return _ -> -1

let lane_par = function
  | Mark1 { par; _ } | Mark2 { par; _ } | Mark3 { par; _ } | Return { par; _ } ->
    Plane.vid_of_parent par

let lane_meta = function
  | Mark1 { ep; _ } -> meta ~kind:kind_mark1 ~plane:Plane.MR ~prior:0 ~ep
  | Mark2 { prior; ep; _ } -> meta ~kind:kind_mark2 ~plane:Plane.MR ~prior ~ep
  | Mark3 { ep; _ } -> meta ~kind:kind_mark3 ~plane:Plane.MT ~prior:0 ~ep
  | Return { plane; ep; _ } -> meta ~kind:kind_return ~plane ~prior:0 ~ep

let mark_of_lanes v par m =
  let par = Plane.parent_of_vid par and ep = meta_ep m in
  match meta_kind m with
  | 0 -> Mark1 { v; par; ep }
  | 1 -> Mark2 { v; par; prior = meta_prior m; ep }
  | 2 -> Mark3 { v; par; ep }
  | _ -> Return { plane = meta_plane m; par; ep }

let obs_kind_of_meta m = if is_return m then Dgr_obs.Event.Return_mark else Dgr_obs.Event.Mark

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
