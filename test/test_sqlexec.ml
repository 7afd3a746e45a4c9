(* Tests for the ML-integrated SQL executor: lexing, parsing, planning
   (predicate pushdown), plain execution, aggregates, PREDICT()
   interception and the guardrail hook. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Frame = Dataframe.Frame
module Ast = Sqlexec.Sql_ast
module Lexer = Sqlexec.Lexer
module Parser = Sqlexec.Parser
module Plan = Sqlexec.Plan
module Exec = Sqlexec.Exec

let s v = Value.String v
let value = Alcotest.testable Value.pp Value.equal

let people_frame () =
  let schema =
    Schema.make
      [ Schema.categorical "name"; Schema.categorical "dept";
        Schema.categorical "grade"; Schema.numeric "age" ]
  in
  Frame.of_rows schema
    [
      [| s "ann"; s "eng"; s "senior"; Value.Int 40 |];
      [| s "bob"; s "eng"; s "junior"; Value.Int 25 |];
      [| s "cat"; s "ops"; s "senior"; Value.Int 35 |];
      [| s "dan"; s "ops"; s "junior"; Value.Int 28 |];
      [| s "eve"; s "eng"; s "senior"; Value.Int 45 |];
    ]

let ctx_with_people () =
  let ctx = Exec.create () in
  Exec.register_table ctx "people" (people_frame ());
  ctx

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_basic () =
  let toks = List.map fst (Lexer.tokenize "SELECT a, 'it''s' FROM t WHERE x >= 4.5;") in
  Alcotest.(check bool) "keyword" true (List.mem (Lexer.Kw "SELECT") toks);
  Alcotest.(check bool) "escaped string" true (List.mem (Lexer.Str "it's") toks);
  Alcotest.(check bool) "float" true (List.mem (Lexer.Float_lit 4.5) toks);
  Alcotest.(check bool) "two-char op" true (List.mem (Lexer.Sym ">=") toks)

let test_lexer_case_insensitive_keywords () =
  let toks = List.map fst (Lexer.tokenize "select AVG from") in
  Alcotest.(check bool) "lowercase select" true (List.mem (Lexer.Kw "SELECT") toks);
  Alcotest.(check bool) "mixed avg" true (List.mem (Lexer.Kw "AVG") toks)

let test_lexer_errors () =
  Alcotest.(check bool) "unterminated string" true
    (try ignore (Lexer.tokenize "SELECT 'oops"); false with Lexer.Error _ -> true);
  Alcotest.(check bool) "bad char" true
    (try ignore (Lexer.tokenize "SELECT #"); false with Lexer.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parser_shapes () =
  let q = Parser.query "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept;" in
  Alcotest.(check int) "two items" 2 (List.length q.Ast.select);
  Alcotest.(check string) "from" "people" q.Ast.from;
  Alcotest.(check int) "one group key" 1 (List.length q.Ast.group_by);
  Alcotest.(check (option string)) "alias" (Some "n")
    (List.nth q.Ast.select 1).Ast.alias

let test_parser_precedence () =
  let q = Parser.query "SELECT a FROM t WHERE x = 1 AND y = 2 OR z = 3" in
  match q.Ast.where with
  | Some (Ast.Or (Ast.And _, Ast.Cmp (Ast.Eq, Ast.Col "z", _))) -> ()
  | _ -> Alcotest.fail "expected (x=1 AND y=2) OR z=3"

let test_parser_case_predict () =
  let q =
    Parser.query
      "SELECT AVG(CASE WHEN PREDICT(label) = 'yes' THEN 1 ELSE 0 END) FROM t"
  in
  let item = (List.hd q.Ast.select).Ast.expr in
  Alcotest.(check bool) "aggregate detected" true (Ast.contains_agg item);
  Alcotest.(check bool) "predict detected" true (Ast.contains_predict item)

let test_parser_errors () =
  let fails text = try ignore (Parser.query text); false with Parser.Error _ -> true in
  Alcotest.(check bool) "missing FROM" true (fails "SELECT a");
  Alcotest.(check bool) "star outside count" true (fails "SELECT AVG(*) FROM t");
  Alcotest.(check bool) "trailing garbage" true (fails "SELECT a FROM t extra stuff")

let test_conjuncts_roundtrip () =
  let e = Ast.And (Ast.Cmp (Ast.Eq, Ast.Col "a", Ast.Lit (Value.Int 1)),
                   Ast.And (Ast.Col "b", Ast.Col "c")) in
  let cs = Ast.conjuncts e in
  Alcotest.(check int) "three conjuncts" 3 (List.length cs);
  match Ast.conjoin cs with
  | Some e' -> Alcotest.(check int) "rejoined" 3 (List.length (Ast.conjuncts e'))
  | None -> Alcotest.fail "conjoin of non-empty list"

(* ------------------------------------------------------------------ *)
(* Plan: predicate pushdown *)

let test_pushdown_split () =
  let q =
    Parser.query
      "SELECT name FROM people WHERE dept = 'eng' AND PREDICT(grade) = 'senior'"
  in
  let plan = Plan.of_query q in
  Alcotest.(check int) "one pushed conjunct" 1 (List.length plan.Plan.pre_filter);
  Alcotest.(check int) "one post conjunct" 1 (List.length plan.Plan.post_filter);
  Alcotest.(check bool) "uses predict" true plan.Plan.uses_predict;
  Alcotest.(check (list string)) "targets" [ "grade" ] plan.Plan.predict_targets

let test_pushdown_no_predict () =
  let plan = Plan.of_query (Parser.query "SELECT name FROM people WHERE dept = 'eng'") in
  Alcotest.(check bool) "no predict" false plan.Plan.uses_predict;
  Alcotest.(check int) "all pushed" 1 (List.length plan.Plan.pre_filter);
  Alcotest.(check bool) "not aggregate" false plan.Plan.is_aggregate

(* ------------------------------------------------------------------ *)
(* Execution without ML *)

let test_exec_select_where () =
  let ctx = ctx_with_people () in
  let r = Exec.run ctx "SELECT name FROM people WHERE dept = 'eng' AND grade = 'senior'" in
  Alcotest.(check (list string)) "columns" [ "name" ] r.Exec.columns;
  Alcotest.(check int) "two rows" 2 (List.length r.Exec.rows);
  Alcotest.(check value) "first" (s "ann") (List.hd r.Exec.rows).(0)

let test_exec_group_by () =
  let ctx = ctx_with_people () in
  let r = Exec.run ctx "SELECT dept, COUNT(*) AS n, AVG(age) FROM people GROUP BY dept" in
  Alcotest.(check int) "two groups" 2 (List.length r.Exec.rows);
  (* groups sorted by key: eng first *)
  let eng = List.hd r.Exec.rows in
  Alcotest.(check value) "group key" (s "eng") eng.(0);
  Alcotest.(check value) "count" (Value.Int 3) eng.(1);
  (match Value.to_float eng.(2) with
   | Some avg -> Alcotest.(check (float 1e-9)) "avg age" ((40.0 +. 25.0 +. 45.0) /. 3.0) avg
   | None -> Alcotest.fail "avg must be numeric")

let test_exec_case_when () =
  let ctx = ctx_with_people () in
  let r =
    Exec.run ctx
      "SELECT AVG(CASE WHEN grade = 'senior' THEN 1 ELSE 0 END) AS senior_rate FROM people"
  in
  (match r.Exec.rows with
   | [ row ] ->
     (match Value.to_float row.(0) with
      | Some rate -> Alcotest.(check (float 1e-9)) "rate" 0.6 rate
      | None -> Alcotest.fail "rate numeric")
   | _ -> Alcotest.fail "single aggregate row")

let test_exec_arith_and_compare () =
  let ctx = ctx_with_people () in
  let r = Exec.run ctx "SELECT name FROM people WHERE age + 5 > 40" in
  (* ages 40, 25, 35, 28, 45 -> 45 and 50 pass *)
  Alcotest.(check int) "rows" 2 (List.length r.Exec.rows)

let test_parser_between_desugars () =
  let q = Parser.query "SELECT a FROM t WHERE x BETWEEN 1 AND 3" in
  match q.Ast.where with
  | Some
      (Ast.And
         ( Ast.Cmp (Ast.Ge, Ast.Col "x", Ast.Lit (Value.Int 1)),
           Ast.Cmp (Ast.Le, Ast.Col "x", Ast.Lit (Value.Int 3)) )) -> ()
  | _ -> Alcotest.fail "expected x >= 1 AND x <= 3"

let test_exec_between () =
  let ctx = ctx_with_people () in
  let r =
    Exec.run ctx "SELECT name FROM people WHERE age BETWEEN 28 AND 40 ORDER BY name"
  in
  (* inclusive at both ends: 40 (ann), 35 (cat), 28 (dan) *)
  Alcotest.(check int) "rows" 3 (List.length r.Exec.rows);
  Alcotest.(check value) "first" (s "ann") (List.hd r.Exec.rows).(0)

(* The VM range prefilter must agree with pure row-at-a-time eval on
   every guard shape it offloads — and leave alone the shapes it cannot
   prove (mixed-type columns keep Value.compare's rank semantics). *)
let test_range_prefilter_differential () =
  let rng = Stat.Rng.create 51 in
  let schema =
    Schema.make
      [ Schema.categorical "grp"; Schema.numeric "x"; Schema.categorical "mix" ]
  in
  let n = 500 in
  let rows =
    List.init n (fun _ ->
        let x =
          match Stat.Rng.int rng 10 with
          | 0 -> Value.Null
          | 1 -> Value.Int (Stat.Rng.int rng 100)
          | _ -> Value.Float (100.0 *. Stat.Rng.float rng)
        in
        let mix =
          (* deliberately not numeric-only: the executor must keep these
             conjuncts on the residual eval path *)
          match Stat.Rng.int rng 4 with
          | 0 -> s (Printf.sprintf "m%d" (Stat.Rng.int rng 3))
          | 1 -> Value.Null
          | _ -> Value.Int (Stat.Rng.int rng 50)
        in
        [| s (Printf.sprintf "g%d" (Stat.Rng.int rng 4)); x; mix |])
  in
  let ctx = Exec.create () in
  Exec.register_table ctx "t" (Frame.of_rows schema rows);
  let count sql =
    match (Exec.run ctx sql).Exec.rows with
    | [ row ] ->
      (match Value.to_float row.(0) with
       | Some f -> int_of_float f
       | None -> Alcotest.fail "count not numeric")
    | _ -> Alcotest.fail "single count row"
  in
  let reference pred = List.length (List.filter pred rows) in
  (* eval's comparison semantics: NULL operands short-circuit to false,
     everything else goes through Value.compare's total order *)
  let cmp op cell lit =
    (not (Value.equal cell Value.Null)) && op (Value.compare cell lit) 0
  in
  Alcotest.(check int) "between on numeric col"
    (reference (fun r ->
         cmp ( >= ) r.(1) (Value.Int 20) && cmp ( <= ) r.(1) (Value.Int 60)))
    (count "SELECT COUNT(*) FROM t WHERE x BETWEEN 20 AND 60");
  Alcotest.(check int) "one-sided range + string eq"
    (reference (fun r -> cmp ( > ) r.(1) (Value.Float 42.5) && r.(0) = s "g1"))
    (count "SELECT COUNT(*) FROM t WHERE x > 42.5 AND grp = 'g1'");
  Alcotest.(check int) "flipped literal-first range"
    (reference (fun r -> cmp ( < ) r.(1) (Value.Int 70)))
    (count "SELECT COUNT(*) FROM t WHERE 70 > x");
  Alcotest.(check int) "mixed-type column keeps rank semantics"
    (reference (fun r -> cmp ( >= ) r.(2) (Value.Int 25)))
    (count "SELECT COUNT(*) FROM t WHERE mix >= 25")

let test_exec_unknown_table_and_column () =
  let ctx = ctx_with_people () in
  Alcotest.(check bool) "unknown table" true
    (try ignore (Exec.run ctx "SELECT a FROM nope"); false
     with Exec.Runtime_error _ -> true);
  Alcotest.(check bool) "unknown column" true
    (try ignore (Exec.run ctx "SELECT nope FROM people"); false
     with Exec.Runtime_error _ -> true)

let test_exec_order_by () =
  let ctx = ctx_with_people () in
  let r = Exec.run ctx "SELECT name, age FROM people ORDER BY age DESC" in
  Alcotest.(check value) "oldest first" (s "eve") (List.hd r.Exec.rows).(0);
  let r2 = Exec.run ctx "SELECT name FROM people ORDER BY name ASC LIMIT 2" in
  Alcotest.(check int) "limit" 2 (List.length r2.Exec.rows);
  Alcotest.(check value) "alphabetical" (s "ann") (List.hd r2.Exec.rows).(0)

let test_exec_order_by_alias () =
  let ctx = ctx_with_people () in
  let r =
    Exec.run ctx
      "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept ORDER BY n DESC"
  in
  Alcotest.(check value) "largest group first" (s "eng") (List.hd r.Exec.rows).(0)

let test_exec_limit_without_order () =
  let ctx = ctx_with_people () in
  let r = Exec.run ctx "SELECT name FROM people LIMIT 3" in
  Alcotest.(check int) "limit only" 3 (List.length r.Exec.rows)

let test_exec_materialized_view () =
  let ctx = ctx_with_people () in
  let _ =
    Exec.register_view ctx "seniors"
      "SELECT name, dept FROM people WHERE grade = 'senior'"
  in
  let r = Exec.run ctx "SELECT COUNT(*) FROM seniors WHERE dept = 'eng'" in
  Alcotest.(check value) "view queried as a table" (Value.Int 2)
    (List.hd r.Exec.rows).(0)

let test_frame_of_result_kinds () =
  let ctx = ctx_with_people () in
  let r = Exec.run ctx "SELECT name, age FROM people" in
  let frame = Exec.frame_of_result r in
  Alcotest.(check int) "rows" 5 (Frame.nrows frame);
  Alcotest.(check (list int)) "age numeric, name categorical" [ 0 ]
    (Frame.categorical_indices frame)

(* Aggregate expressions over the empty ungrouped group evaluate their
   aggregates: COUNT( * ) is 0 there, not NULL. *)
let test_exec_empty_aggregate_arith () =
  let ctx = ctx_with_people () in
  let r = Exec.run ctx "SELECT COUNT(*) + 1 AS n FROM people WHERE age > 100" in
  Alcotest.(check (list (array value))) "one row" [ [| Value.Float 1.0 |] ] r.Exec.rows

let test_exec_empty_aggregate_compare () =
  let ctx = ctx_with_people () in
  let r = Exec.run ctx "SELECT COUNT(*) > 0 FROM people WHERE age > 100" in
  Alcotest.(check (list (array value))) "one row" [ [| Value.Bool false |] ] r.Exec.rows

(* CASE, NOT, AND and OR combine aggregates like arithmetic does. *)
let test_exec_boolean_over_aggregates () =
  let ctx = ctx_with_people () in
  let r =
    Exec.run ctx
      "SELECT dept, CASE WHEN COUNT(*) > 2 THEN 1 ELSE 0 END, \
       NOT (MAX(age) > 40), MIN(age) < 30 AND COUNT(*) = 2, \
       SUM(age) > 100 OR AVG(age) > 40 FROM people GROUP BY dept"
  in
  Alcotest.(check (list (array value))) "per dept"
    [
      [| s "eng"; Value.Int 1; Value.Bool false; Value.Bool false; Value.Bool true |];
      [| s "ops"; Value.Int 0; Value.Bool true; Value.Bool true; Value.Bool false |];
    ]
    r.Exec.rows

(* ------------------------------------------------------------------ *)
(* ML-integrated execution with the guardrail *)

(* label = AND of x and y; constraint: z is a copy of y *)
let ml_setup () =
  let schema =
    Schema.make
      [ Schema.categorical "x"; Schema.categorical "y"; Schema.categorical "z";
        Schema.categorical "label" ]
  in
  let rng = Stat.Rng.create 17 in
  let rows =
    List.init 500 (fun _ ->
        let x = Stat.Rng.int rng 2 and y = Stat.Rng.int rng 2 in
        let l = if x = 1 && y = 1 then "yes" else "no" in
        [| Value.Int x; Value.Int y; Value.Int y; s l |])
  in
  let frame = Frame.of_rows schema rows in
  let model = Mlmodel.Ensemble.train frame ~label:"label" in
  (* constraint: GIVEN z ON y (z duplicates y) *)
  let prog =
    Guardrail.Parse.prog schema
      "GIVEN z ON y HAVING IF z = 0 THEN y <- 0; IF z = 1 THEN y <- 1;"
  in
  (schema, frame, model, prog)

let test_exec_predict () =
  let schema, frame, model, _ = ml_setup () in
  ignore schema;
  let ctx = Exec.create () in
  Exec.register_table ctx "t" frame;
  Exec.register_model ctx ~target:"label" model;
  let r = Exec.run ctx "SELECT PREDICT(label) AS pred, COUNT(*) FROM t GROUP BY PREDICT(label)" in
  Alcotest.(check int) "two prediction groups" 2 (List.length r.Exec.rows);
  Alcotest.(check bool) "all rows predicted" true
    (r.Exec.stats.Exec.rows_predicted = Frame.nrows frame)

let test_exec_guardrail_rectifies () =
  let schema, frame, model, prog = ml_setup () in
  (* corrupt y in a row where x=1, y=1 -> prediction flips without repair *)
  let row =
    let rec find i =
      if Value.equal (Frame.get frame i 0) (Value.Int 1)
         && Value.equal (Frame.get frame i 1) (Value.Int 1)
      then i
      else find (i + 1)
    in
    find 0
  in
  let corrupted = Frame.set frame row 1 (Value.Int 0) in
  ignore schema;
  let query = "SELECT COUNT(*) AS n FROM t WHERE PREDICT(label) = 'yes'" in
  let ctx = Exec.create () in
  Exec.register_table ctx "t" frame;
  Exec.register_model ctx ~target:"label" model;
  let clean_n = (List.hd (Exec.run ctx query).Exec.rows).(0) in
  Exec.register_table ctx "t" corrupted;
  let corrupted_n = (List.hd (Exec.run ctx query).Exec.rows).(0) in
  Alcotest.(check bool) "corruption changes the answer" true
    (not (Value.equal clean_n corrupted_n));
  (* with the guardrail in rectify mode, the answer is restored *)
  Exec.set_guard ctx ~strategy:Guardrail.Validator.Rectify
    (Guardrail.Validator.compile prog);
  let r = Exec.run ctx query in
  Alcotest.(check value) "rectified answer matches clean" clean_n
    (List.hd r.Exec.rows).(0);
  Alcotest.(check bool) "violations counted" true (r.Exec.stats.Exec.violations > 0);
  Alcotest.(check bool) "guardrail time metered" true
    (r.Exec.stats.Exec.guardrail_s >= 0.0)

let test_exec_guardrail_raise () =
  let _, frame, model, prog = ml_setup () in
  let corrupted = Frame.set frame 0 1 (Value.Int 0) in
  let corrupted = Frame.set corrupted 0 2 (Value.Int 1) in
  let ctx = Exec.create () in
  Exec.register_table ctx "t" corrupted;
  Exec.register_model ctx ~target:"label" model;
  Exec.set_guard ctx ~strategy:Guardrail.Validator.Raise
    (Guardrail.Validator.compile prog);
  Alcotest.(check bool) "raise aborts the query" true
    (try
       ignore (Exec.run ctx "SELECT COUNT(*) FROM t WHERE PREDICT(label) = 'yes'");
       false
     with Guardrail.Validator.Violation_error _ -> true)

(* The guard's bytecode is cached by dictionary set: each query vets a
   fresh Frame.take sub-frame, and the second run of a query reuses the
   first run's lowering. *)
let test_exec_guard_lowers_once () =
  let _, frame, model, prog = ml_setup () in
  let ctx = Exec.create () in
  Exec.register_table ctx "t" frame;
  Exec.register_model ctx ~target:"label" model;
  Exec.set_guard ctx (Guardrail.Validator.compile prog);
  let misses = Obs.Metric.counter Obs.Metric.default "vm.cache.misses" in
  let lowerings () =
    let m0 = Obs.Metric.counter_value misses in
    ignore (Exec.run ctx "SELECT COUNT(*) FROM t WHERE PREDICT(label) = 'yes'");
    Obs.Metric.counter_value misses - m0
  in
  Alcotest.(check int) "first run lowers" 1 (lowerings ());
  Alcotest.(check int) "second run reuses" 0 (lowerings ())

let test_exec_no_model () =
  let ctx = ctx_with_people () in
  Alcotest.(check bool) "missing model" true
    (try
       ignore (Exec.run ctx "SELECT PREDICT(grade) FROM people");
       false
     with Exec.Runtime_error _ -> true)

let test_numeric_vector () =
  let ctx = ctx_with_people () in
  let r = Exec.run ctx "SELECT dept, COUNT(*) FROM people GROUP BY dept" in
  let v = Exec.numeric_vector r in
  (* only the counts are numeric *)
  Alcotest.(check (array (float 1e-9))) "vector" [| 3.0; 2.0 |] v

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_count_matches_filter =
  QCheck.Test.make ~name:"COUNT(*) = rows passing WHERE" ~count:40
    QCheck.(int_bound 50)
    (fun threshold ->
      let ctx = ctx_with_people () in
      let q =
        Printf.sprintf "SELECT COUNT(*) FROM people WHERE age > %d" threshold
      in
      let r = Exec.run ctx q in
      let expected =
        List.length
          (List.filter
             (fun age -> age > threshold)
             [ 40; 25; 35; 28; 45 ])
      in
      match (List.hd r.Exec.rows).(0) with
      | Value.Int n -> n = expected
      | _ -> false)

let () =
  Alcotest.run "sqlexec"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basic;
          Alcotest.test_case "case insensitivity" `Quick test_lexer_case_insensitive_keywords;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "shapes" `Quick test_parser_shapes;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "case + predict" `Quick test_parser_case_predict;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "conjuncts" `Quick test_conjuncts_roundtrip;
          Alcotest.test_case "between desugars" `Quick test_parser_between_desugars;
        ] );
      ( "plan",
        [
          Alcotest.test_case "pushdown split" `Quick test_pushdown_split;
          Alcotest.test_case "no predict" `Quick test_pushdown_no_predict;
        ] );
      ( "exec",
        [
          Alcotest.test_case "select where" `Quick test_exec_select_where;
          Alcotest.test_case "group by" `Quick test_exec_group_by;
          Alcotest.test_case "case when" `Quick test_exec_case_when;
          Alcotest.test_case "arithmetic" `Quick test_exec_arith_and_compare;
          Alcotest.test_case "between" `Quick test_exec_between;
          Alcotest.test_case "range prefilter differential" `Quick
            test_range_prefilter_differential;
          Alcotest.test_case "unknown names" `Quick test_exec_unknown_table_and_column;
          Alcotest.test_case "numeric vector" `Quick test_numeric_vector;
          Alcotest.test_case "order by" `Quick test_exec_order_by;
          Alcotest.test_case "order by alias" `Quick test_exec_order_by_alias;
          Alcotest.test_case "limit" `Quick test_exec_limit_without_order;
          Alcotest.test_case "materialized view" `Quick test_exec_materialized_view;
          Alcotest.test_case "frame of result" `Quick test_frame_of_result_kinds;
          Alcotest.test_case "empty aggregate arithmetic" `Quick
            test_exec_empty_aggregate_arith;
          Alcotest.test_case "empty aggregate comparison" `Quick
            test_exec_empty_aggregate_compare;
          Alcotest.test_case "boolean and case over aggregates" `Quick
            test_exec_boolean_over_aggregates;
        ] );
      ( "ml",
        [
          Alcotest.test_case "predict" `Quick test_exec_predict;
          Alcotest.test_case "guardrail rectifies" `Quick test_exec_guardrail_rectifies;
          Alcotest.test_case "guardrail raises" `Quick test_exec_guardrail_raise;
          Alcotest.test_case "guard lowers once" `Quick test_exec_guard_lowers_once;
          Alcotest.test_case "missing model" `Quick test_exec_no_model;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ qcheck_count_matches_filter ] );
    ]
