open Dgr_graph

(** Abstract syntax of the small functional language compiled onto the
    computation graph.

    The language is first-order (top-level function definitions only,
    applied saturated), call-by-need with speculative conditionals — just
    enough to write the workloads the paper motivates: recursive
    arithmetic, list processing, speculation, and deliberately divergent
    terms ([bottom]) for the deadlock experiments. *)

type expr =
  | Int of int
  | Bool of bool
  | Nil
  | Var of string
  | Let of string * expr * expr  (** shared subexpression (one graph vertex) *)
  | If of expr * expr * expr
  | Prim of Label.prim * expr list
  | Cons of expr * expr
  | Call of string * expr list
  | Bottom  (** an expression with value ⊥ *)

type def = { name : string; params : string list; body : expr }

type program = def list

val pp_expr : Format.formatter -> expr -> unit


val free_vars : expr -> string list
(** Variables not bound by enclosing [Let]s, in first-occurrence order. *)
