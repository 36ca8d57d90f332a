(* Front-end: lexer, parser, compiler, templates. *)
open Dgr_graph
open Dgr_lang
open Dgr_reduction

let parse = Parser.parse_expr

let test_lexer_tokens () =
  let open Lexer in
  Alcotest.(check bool) "operators" true
    (tokenize "a <= b == c != d && e || !f"
    = [ NAME "a"; LEQ; NAME "b"; EQEQ; NAME "c"; NEQ; NAME "d"; ANDAND; NAME "e"; OROR;
        BANG; NAME "f"; EOF ]);
  Alcotest.(check bool) "comment skipped" true
    (tokenize "1 # comment to end of line\n2" = [ INT 1; INT 2; EOF ]);
  Alcotest.(check bool) "keywords vs names" true
    (tokenize "if iffy then thence" = [ KW_IF; NAME "iffy"; KW_THEN; NAME "thence"; EOF ])

let test_lexer_error () =
  Alcotest.check_raises "unknown char" (Lexer.Error ("unexpected character '@'", 2)) (fun () ->
      ignore (Lexer.tokenize "1 @"))

let test_parser_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  (match parse "1 + 2 * 3" with
  | Ast.Prim (Label.Add, [ Ast.Int 1; Ast.Prim (Label.Mul, [ Ast.Int 2; Ast.Int 3 ]) ]) -> ()
  | e -> Alcotest.failf "wrong tree: %a" Ast.pp_expr e);
  (* comparison binds looser than arithmetic, && looser still *)
  match parse "1 + 1 < 3 && true" with
  | Ast.Prim (Label.And, [ Ast.Prim (Label.Lt, _); Ast.Bool true ]) -> ()
  | e -> Alcotest.failf "wrong tree: %a" Ast.pp_expr e

let test_parser_desugar () =
  (match parse "a > b" with
  | Ast.Prim (Label.Lt, [ Ast.Var "b"; Ast.Var "a" ]) -> ()
  | e -> Alcotest.failf "> should swap to <: %a" Ast.pp_expr e);
  (match parse "a != b" with
  | Ast.Prim (Label.Not, [ Ast.Prim (Label.Eq, _) ]) -> ()
  | e -> Alcotest.failf "!= desugars: %a" Ast.pp_expr e);
  match parse "[1, 2]" with
  | Ast.Cons (Ast.Int 1, Ast.Cons (Ast.Int 2, Ast.Nil)) -> ()
  | e -> Alcotest.failf "list literal: %a" Ast.pp_expr e

let test_parser_builtins () =
  (match parse "head(xs)" with
  | Ast.Prim (Label.Head, [ Ast.Var "xs" ]) -> ()
  | e -> Alcotest.failf "head builtin: %a" Ast.pp_expr e);
  (match parse "cons(1, nil)" with
  | Ast.Cons (Ast.Int 1, Ast.Nil) -> ()
  | e -> Alcotest.failf "cons builtin: %a" Ast.pp_expr e);
  match parse "f(1, 2)" with
  | Ast.Call ("f", [ Ast.Int 1; Ast.Int 2 ]) -> ()
  | e -> Alcotest.failf "call: %a" Ast.pp_expr e

let test_parser_errors () =
  let expect_fail s =
    match Parser.parse_expr s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  expect_fail "if 1 then 2";
  expect_fail "let x 1 in x";
  expect_fail "head(1, 2)";
  expect_fail "(1 + 2";
  expect_fail "1 2"

let test_program_parse () =
  let p = Parser.parse_program "def f x y = x + y;\ndef main = f(1, 2);" in
  Alcotest.(check int) "two defs" 2 (List.length p);
  let f = List.hd p in
  Alcotest.(check string) "name" "f" f.Ast.name;
  Alcotest.(check (list string)) "params" [ "x"; "y" ] f.Ast.params

let test_free_vars () =
  let e = parse "let x = a + 1 in x + b" in
  Alcotest.(check (list string)) "free vars in order" [ "a"; "b" ] (Ast.free_vars e)

let test_compile_sharing () =
  (* let-bound expressions compile to one shared slot *)
  let reg = Compile.compile_program (Parser.parse_program "def main = let x = 1 + 2 in x * x;") in
  match Template.lookup reg "main" with
  | exception Not_found -> Alcotest.fail "main missing"
  | tpl ->
    (* slots: 1, 2, add, mul -> 4 (no duplicate adds) *)
    Alcotest.(check int) "shared slot" 4 (Template.size tpl)

let test_compile_errors () =
  let expect_fail src =
    match Compile.compile_program (Parser.parse_program src) with
    | exception Compile.Compile_error _ -> ()
    | _ -> Alcotest.failf "expected compile error for %S" src
  in
  expect_fail "def main = x;";
  expect_fail "def f x = x; def main = f(1, 2);";
  expect_fail "def main = g(1);";
  expect_fail "def f = 1; def f = 2;";
  expect_fail "def f x x = x; def main = f(1, 1);";
  (match Compile.load (Parser.parse_program "def notmain = 1;") with
  | exception Compile.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected missing-main error");
  match Compile.load (Parser.parse_program "def main x = x;") with
  | exception Compile.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected main-arity error"

let test_template_validation () =
  Alcotest.check_raises "forward slot reference"
    (Invalid_argument "Template.make(bad): slot 0 references slot 0 (must be earlier)")
    (fun () ->
      ignore
        (Template.make ~name:"bad" ~arity:0
           [ { Template.label = Label.Ind; operands = [ Template.Slot 0 ] } ]));
  Alcotest.check_raises "parameter out of range"
    (Invalid_argument "Template.make(bad): slot 0 references parameter 1/1") (fun () ->
      ignore
        (Template.make ~name:"bad" ~arity:1
           [ { Template.label = Label.Ind; operands = [ Template.Param 1 ] } ]))

let test_template_instantiate () =
  let tpl =
    Template.make ~name:"pair-sum" ~arity:2
      [
        { Template.label = Label.Prim Label.Add;
          operands = [ Template.Param 0; Template.Param 1 ] };
        { Template.label = Label.Ind; operands = [ Template.Slot 0 ] };
      ]
  in
  let g = Graph.create () in
  let x = Builder.add g (Label.Int 1) [] in
  let y = Builder.add g (Label.Int 2) [] in
  let mut = Dgr_core.Mutator.create ~spawn:(fun _ _ _ -> ()) g in
  let entry = Template.instantiate tpl g mut ~actuals:[ x; y ] in
  Alcotest.(check bool) "entry is the indirection" true
    ((Vertex.label (Graph.vertex g entry)) = Label.Ind);
  let add = List.hd (Graph.children g entry) in
  Alcotest.(check (list int)) "params substituted" [ x; y ] (Graph.children g add);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Template.instantiate(pair-sum): expected 2 actuals, got 1") (fun () ->
      ignore (Template.instantiate tpl g mut ~actuals:[ x ]))

let test_registry () =
  let reg = Template.create_registry () in
  let tpl =
    Template.make ~name:"t" ~arity:0 [ { Template.label = Label.Int 1; operands = [] } ]
  in
  Template.define reg tpl;
  Alcotest.(check bool) "found" true (Template.mem reg "t");
  Alcotest.(check (list string)) "names" [ "t" ] (Template.names reg);
  Alcotest.check_raises "duplicate" (Invalid_argument "Template.define: duplicate template t")
    (fun () -> Template.define reg tpl)

let test_graph_of_expr () =
  let g = Graph.create () in
  let v = Compile.graph_of_expr g (parse "1 + 2 * 3") in
  Alcotest.(check bool) "rooted at add" true
    ((Vertex.label (Graph.vertex g v)) = Label.Prim Label.Add);
  Alcotest.(check (list string)) "valid" [] (Validate.check g)

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer error" `Quick test_lexer_error;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser desugaring" `Quick test_parser_desugar;
    Alcotest.test_case "builtins" `Quick test_parser_builtins;
    Alcotest.test_case "parse errors" `Quick test_parser_errors;
    Alcotest.test_case "program parse" `Quick test_program_parse;
    Alcotest.test_case "free variables" `Quick test_free_vars;
    Alcotest.test_case "let compiles to shared slot" `Quick test_compile_sharing;
    Alcotest.test_case "compile errors" `Quick test_compile_errors;
    Alcotest.test_case "template validation" `Quick test_template_validation;
    Alcotest.test_case "template instantiation" `Quick test_template_instantiate;
    Alcotest.test_case "template registry" `Quick test_registry;
    Alcotest.test_case "graph_of_expr" `Quick test_graph_of_expr;
  ]
