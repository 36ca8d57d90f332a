open Dgr_graph

type operand = Param of int | Slot of int

type instr = { label : Label.t; operands : operand list }

type t = {
  name : string;
  arity : int;
  entry : int;
  labels : Label.t array;
  ops : int array;
  op_lo : int array;
}

(* Operand [Param p] is coded [-(p + 1)], [Slot s] is [s]. *)
let code = function Param p -> -(p + 1) | Slot s -> s

let make ~name ~arity instrs =
  let slots = Array.of_list instrs in
  if Array.length slots = 0 then invalid_arg "Template.make: empty body";
  Array.iteri
    (fun i instr ->
      List.iter
        (function
          | Param p ->
            if p < 0 || p >= arity then
              invalid_arg
                (Printf.sprintf "Template.make(%s): slot %d references parameter %d/%d" name i
                   p arity)
          | Slot s ->
            if s < 0 || s >= i then
              invalid_arg
                (Printf.sprintf
                   "Template.make(%s): slot %d references slot %d (must be earlier)" name i s))
        instr.operands)
    slots;
  let op_lo = Array.make (Array.length slots + 1) 0 in
  Array.iteri (fun i instr -> op_lo.(i + 1) <- op_lo.(i) + List.length instr.operands) slots;
  let ops = Array.of_list (List.concat_map (fun instr -> List.map code instr.operands) instrs) in
  {
    name;
    arity;
    entry = Array.length slots - 1;
    labels = Array.map (fun instr -> instr.label) slots;
    ops;
    op_lo;
  }

let size t = Array.length t.labels

(* The slot program, run over the compiled operands. [actual src p] is
   the [p]-th actual: a top-level function and its source rather than a
   closure, so expansion allocates only its slots. [vids] holds the
   slots' vids. *)
let fill t g mut ~from ~vids actual src =
  for i = 0 to Array.length t.labels - 1 do
    let v = Vertex.id (Graph.alloc_from g ~from t.labels.(i)) in
    vids.(i) <- v;
    for k = t.op_lo.(i) to t.op_lo.(i + 1) - 1 do
      let o = t.ops.(k) in
      let child = if o < 0 then actual src (-o - 1) else vids.(o) in
      Dgr_core.Mutator.connect_fresh mut ~parent:v ~child
    done
  done;
  vids.(t.entry)

let instantiate ?(from = -1) t g mut ~actuals =
  if List.length actuals <> t.arity then
    invalid_arg
      (Printf.sprintf "Template.instantiate(%s): expected %d actuals, got %d" t.name t.arity
         (List.length actuals));
  fill t g mut ~from ~vids:(Array.make (size t) (-1)) Array.get (Array.of_list actuals)

let expand t g mut ~vids apply =
  if Vertex.arg_count apply <> t.arity then
    invalid_arg
      (Printf.sprintf "Template.expand(%s): expected %d actuals, got %d" t.name t.arity
         (Vertex.arg_count apply));
  fill t g mut ~from:(Vertex.pe apply) ~vids Vertex.arg apply

type registry = (string, t) Hashtbl.t

let create_registry () : registry = Hashtbl.create 16

let define reg t =
  if Hashtbl.mem reg t.name then
    invalid_arg (Printf.sprintf "Template.define: duplicate template %s" t.name);
  Hashtbl.replace reg t.name t

let lookup reg name = Hashtbl.find reg name

let mem reg name = Hashtbl.mem reg name

let names reg = Hashtbl.fold (fun k _ acc -> k :: acc) reg [] |> List.sort String.compare
