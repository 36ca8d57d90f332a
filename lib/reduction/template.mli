open Dgr_graph

(** Function-body templates.

    A template is the static description of the subgraph spliced in by the
    paper's [expand-node] primitive when an [Apply] vertex is reduced: "an
    arbitrary subgraph (obtained from the free-list)" whose vertices may
    reference the applied vertex's original children (the actuals).

    Templates are straight-line slot programs: slot [i] allocates one
    vertex with a label and operands that are either formal parameters
    (replaced by the actual argument vertices at instantiation) or
    earlier slots (enabling shared subexpressions inside a body). The
    {e entry} slot is the body's root. *)

type operand =
  | Param of int  (** 0-based formal parameter *)
  | Slot of int  (** an earlier slot of this template *)

type instr = { label : Label.t; operands : operand list }

type t = private {
  name : string;
  arity : int;
  entry : int;
  labels : Label.t array;  (** slot [i]'s label *)
  ops : int array;
      (** every slot's operands in slot order, compiled once by {!make}:
          [Slot s] as [s], [Param p] as [-(p + 1)] *)
  op_lo : int array;  (** slot [i]'s operands are [ops.(op_lo.(i) .. op_lo.(i + 1) - 1)] *)
}

val make : name:string -> arity:int -> instr list -> t
(** [entry] is the last slot. Validates that operands reference only
    earlier slots and in-range parameters; raises [Invalid_argument]
    otherwise. *)

val instantiate : ?from:int -> t -> Graph.t -> Dgr_core.Mutator.t -> actuals:Vid.t list -> Vid.t
(** Allocate one vertex per slot from the free list, wire operands with
    [Mutator.connect_fresh] (the subgraph is unreachable until the caller
    splices it), substitute actuals for parameters, and return the entry
    vertex. [from] is forwarded to [Graph.alloc] so a partitioned graph
    draws the slots from the expanding PE's local store. Raises
    [Invalid_argument] on an arity mismatch. *)

val expand : t -> Graph.t -> Dgr_core.Mutator.t -> vids:int array -> Vertex.t -> Vid.t
(** [expand t g mut ~vids apply] is {!instantiate} with [apply]'s args
    as the actuals and [from] its PE — the [Apply] reduction's form.
    [vids], of length at least {!size}, is scratch for the slot vids.
    Allocates nothing but the slots' fresh handles. Raises
    [Invalid_argument] on an arity mismatch. *)

val size : t -> int
(** Number of vertices an instantiation allocates. *)

(** {1 Registry} *)

type registry

val create_registry : unit -> registry

val define : registry -> t -> unit
(** Raises [Invalid_argument] on duplicate names. *)

val lookup : registry -> string -> t
(** Raises [Not_found] for an undefined name. Does not allocate. *)

val mem : registry -> string -> bool

val names : registry -> string list
