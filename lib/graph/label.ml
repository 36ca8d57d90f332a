type prim =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Lt
  | Leq
  | And
  | Or
  | Not
  | Neg
  | Is_nil
  | Head
  | Tail

type t =
  | Int of int
  | Bool of bool
  | Nil
  | Cons
  | Prim of prim
  | If
  | Apply of string
  | Ind
  | Bottom
  | Err of string
  | Param of int
  | Freed

type value = V_int of int | V_bool of bool | V_nil | V_ref of Vid.t | V_err of string

let prim_arity = function
  | Add | Sub | Mul | Div | Mod | Eq | Lt | Leq | And | Or -> 2
  | Not | Neg | Is_nil | Head | Tail -> 1

let prim_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | Eq -> "eq"
  | Lt -> "lt"
  | Leq -> "leq"
  | And -> "and"
  | Or -> "or"
  | Not -> "not"
  | Neg -> "neg"
  | Is_nil -> "isnil"
  | Head -> "head"
  | Tail -> "tail"

let is_whnf = function
  | Int _ | Bool _ | Nil | Cons | Err _ -> true
  | Prim _ | If | Apply _ | Ind | Bottom | Param _ | Freed -> false

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | Nil, Nil | Cons, Cons | If, If | Ind, Ind | Bottom, Bottom | Freed, Freed -> true
  | Prim x, Prim y -> x = y
  | Apply x, Apply y -> String.equal x y
  | Param x, Param y -> x = y
  | Err x, Err y -> String.equal x y
  | ( (Int _ | Bool _ | Nil | Cons | Prim _ | If | Apply _ | Ind | Bottom | Err _ | Param _
      | Freed),
      _ ) ->
    false

let equal_value a b =
  match (a, b) with
  | V_int x, V_int y -> x = y
  | V_bool x, V_bool y -> x = y
  | V_nil, V_nil -> true
  | V_ref x, V_ref y -> Vid.equal x y
  | V_err x, V_err y -> String.equal x y
  | (V_int _ | V_bool _ | V_nil | V_ref _ | V_err _), _ -> false

let to_string = function
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b
  | Nil -> "nil"
  | Cons -> "cons"
  | Prim p -> prim_name p
  | If -> "if"
  | Apply f -> "apply:" ^ f
  | Ind -> "ind"
  | Bottom -> "bottom"
  | Err msg -> "err:" ^ msg
  | Param i -> "param:" ^ string_of_int i
  | Freed -> "freed"

let pp fmt l = Format.pp_print_string fmt (to_string l)

let pp_value fmt = function
  | V_int n -> Format.pp_print_int fmt n
  | V_bool b -> Format.pp_print_bool fmt b
  | V_nil -> Format.pp_print_string fmt "nil"
  | V_ref v -> Format.fprintf fmt "ref(%a)" Vid.pp v
  | V_err msg -> Format.fprintf fmt "error(%s)" msg
