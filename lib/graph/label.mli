(** Vertex labels and reduced values.

    The computation graph's vertices are labelled with "primitive operators
    and values" (§2). The label vocabulary here is the minimal set needed
    to drive the paper's model with real programs: scalar values, lazy
    [Cons] cells, strict primitive operators, a speculative conditional,
    function application by template expansion (the paper's [expand-node]),
    indirections (created by reductions overwriting a vertex), an explicit
    divergent operator for deadlock experiments, and template formal
    parameters (only valid inside function-body templates). *)

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
  | Cons  (** args = [hd; tl]; already in weak head normal form *)
  | Prim of prim  (** strict in every argument *)
  | If  (** args = [pred; then_; else_]; pred vital, branches speculated *)
  | Apply of string  (** named function; reduced by expand-node *)
  | Ind  (** args = [target]; demand is forwarded *)
  | Bottom  (** never produces a value (used to model divergence) *)
  | Err of string
      (** the value of a recovered deadlocked vertex (footnote 5's
          [is-bottom] pseudo-function): propagates through strict
          operators so the requester learns its input was ⊥ *)
  | Param of int  (** formal parameter slot, only inside templates *)
  | Freed  (** vertex currently on the free list *)

type value = V_int of int | V_bool of bool | V_nil | V_ref of Vid.t | V_err of string
(** The "ultimate value" returned by a response task. Structured data in
    weak head normal form is returned by reference ([V_ref] of a [Cons]
    vertex), everything else by copy. *)

val prim_arity : prim -> int

val prim_name : prim -> string

val is_whnf : t -> bool
(** True for labels that already denote a value ([Int], [Bool], [Nil],
    [Cons]). *)


val equal : t -> t -> bool

val equal_value : value -> value -> bool

val pp : Format.formatter -> t -> unit

val pp_value : Format.formatter -> value -> unit

val to_string : t -> string
