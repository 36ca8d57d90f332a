open Dgr_graph
open Dgr_reduction

exception Compile_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* Emit [expr] into a slot buffer, returning the operand that denotes its
   value. [env] maps variables to operands (parameters or let slots). *)
let emit_expr ~arities ~fname buf =
  let slot instr =
    Dgr_util.Vec.push buf instr;
    Template.Slot (Dgr_util.Vec.length buf - 1)
  in
  let rec go env expr =
    match expr with
    | Ast.Int n -> slot { Template.label = Label.Int n; operands = [] }
    | Ast.Bool b -> slot { Template.label = Label.Bool b; operands = [] }
    | Ast.Nil -> slot { Template.label = Label.Nil; operands = [] }
    | Ast.Bottom -> slot { Template.label = Label.Bottom; operands = [] }
    | Ast.Var x -> (
      match List.assoc_opt x env with
      | Some op -> op
      | None -> fail "%s: unbound variable %s" fname x)
    | Ast.Let (x, e1, e2) ->
      let o1 = go env e1 in
      go ((x, o1) :: env) e2
    | Ast.If (p, t, e) ->
      let op = go env p in
      let ot = go env t in
      let oe = go env e in
      slot { Template.label = Label.If; operands = [ op; ot; oe ] }
    | Ast.Prim (p, args) ->
      if List.length args <> Label.prim_arity p then
        fail "%s: %s expects %d argument(s), got %d" fname (Label.prim_name p)
          (Label.prim_arity p) (List.length args);
      let ops = List.map (go env) args in
      slot { Template.label = Label.Prim p; operands = ops }
    | Ast.Cons (h, t) ->
      let oh = go env h in
      let ot = go env t in
      slot { Template.label = Label.Cons; operands = [ oh; ot ] }
    | Ast.Call (f, args) -> (
      match List.assoc_opt f arities with
      | None -> fail "%s: call to unknown function %s" fname f
      | Some arity ->
        if List.length args <> arity then
          fail "%s: %s expects %d argument(s), got %d" fname f arity (List.length args);
        let ops = List.map (go env) args in
        slot { Template.label = Label.Apply f; operands = ops })
  in
  go

let compile_def ~arities (d : Ast.def) =
  let buf = Dgr_util.Vec.create () in
  let env = List.mapi (fun i x -> (x, Template.Param i)) d.Ast.params in
  (match
     List.fold_left
       (fun seen x ->
         if List.mem x seen then fail "%s: duplicate parameter %s" d.Ast.name x else x :: seen)
       [] d.Ast.params
   with
  | _ -> ());
  let result = emit_expr ~arities ~fname:d.Ast.name buf env d.Ast.body in
  (* The entry must be the final slot; wrap parameter or shared-slot
     results in an indirection. *)
  (match result with
  | Template.Slot s when s = Dgr_util.Vec.length buf - 1 -> ()
  | op -> ignore (Dgr_util.Vec.push buf { Template.label = Label.Ind; operands = [ op ] }));
  Template.make ~name:d.Ast.name ~arity:(List.length d.Ast.params)
    (Dgr_util.Vec.to_list buf)

let compile_program (program : Ast.program) =
  let arities =
    List.fold_left
      (fun acc (d : Ast.def) ->
        if List.mem_assoc d.Ast.name acc then fail "duplicate definition of %s" d.Ast.name
        else (d.Ast.name, List.length d.Ast.params) :: acc)
      [] program
  in
  let reg = Template.create_registry () in
  List.iter (fun d -> Template.define reg (compile_def ~arities d)) program;
  reg

let null_mutator g = Dgr_core.Mutator.create ~spawn:(fun _ _ _ -> ()) g

let load ?(num_pes = 1) ?(free_pool = 0) program =
  let reg = compile_program program in
  match Template.lookup reg "main" with
  | exception Not_found -> fail "program has no main"
  | tpl when tpl.Template.arity <> 0 -> fail "main must take no parameters"
  | tpl ->
    let g = Graph.create ~num_pes () in
    Graph.preallocate g (free_pool + Template.size tpl);
    let root = Template.instantiate tpl g (null_mutator g) ~actuals:[] in
    Graph.set_root g root;
    (g, reg)

let load_string ?num_pes ?free_pool source =
  load ?num_pes ?free_pool (Parser.parse_program source)

let graph_of_expr ?registry g expr =
  let arities =
    match registry with
    | None -> []
    | Some reg ->
      List.map (fun name -> (name, (Template.lookup reg name).Template.arity)) (Template.names reg)
  in
  let buf = Dgr_util.Vec.create () in
  let result = emit_expr ~arities ~fname:"<expr>" buf [] expr in
  (match result with
  | Template.Slot s when s = Dgr_util.Vec.length buf - 1 -> ()
  | op -> ignore (Dgr_util.Vec.push buf { Template.label = Label.Ind; operands = [ op ] }));
  let tpl = Template.make ~name:"<expr>" ~arity:0 (Dgr_util.Vec.to_list buf) in
  Template.instantiate tpl g (null_mutator g) ~actuals:[]
