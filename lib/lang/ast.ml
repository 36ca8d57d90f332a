open Dgr_graph

type expr =
  | Int of int
  | Bool of bool
  | Nil
  | Var of string
  | Let of string * expr * expr
  | If of expr * expr * expr
  | Prim of Label.prim * expr list
  | Cons of expr * expr
  | Call of string * expr list
  | Bottom

type def = { name : string; params : string list; body : expr }

type program = def list

let rec pp_expr fmt = function
  | Int n -> Format.pp_print_int fmt n
  | Bool b -> Format.pp_print_bool fmt b
  | Nil -> Format.pp_print_string fmt "nil"
  | Var x -> Format.pp_print_string fmt x
  | Let (x, e1, e2) ->
    Format.fprintf fmt "@[<hov 2>let %s =@ %a in@ %a@]" x pp_expr e1 pp_expr e2
  | If (p, t, e) ->
    Format.fprintf fmt "@[<hov 2>if %a@ then %a@ else %a@]" pp_expr p pp_expr t pp_expr e
  | Prim (p, args) ->
    Format.fprintf fmt "@[<hov 2>%s(%a)@]" (Label.prim_name p)
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ") pp_expr)
      args
  | Cons (h, t) -> Format.fprintf fmt "@[<hov 2>cons(%a,@ %a)@]" pp_expr h pp_expr t
  | Call (f, args) ->
    Format.fprintf fmt "@[<hov 2>%s(%a)@]" f
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ") pp_expr)
      args
  | Bottom -> Format.pp_print_string fmt "bottom"

let free_vars expr =
  let seen = ref [] in
  let add x bound =
    if (not (List.mem x bound)) && not (List.mem x !seen) then seen := x :: !seen
  in
  let rec go bound = function
    | Int _ | Bool _ | Nil | Bottom -> ()
    | Var x -> add x bound
    | Let (x, e1, e2) ->
      go bound e1;
      go (x :: bound) e2
    | If (p, t, e) ->
      go bound p;
      go bound t;
      go bound e
    | Prim (_, args) | Call (_, args) -> List.iter (go bound) args
    | Cons (h, t) ->
      go bound h;
      go bound t
  in
  go [] expr;
  List.rev !seen
