(* Differential suite for the SQL executor: [Sqlexec.Exec.run] (compiled
   column closures, VM prefilter, Group kernel) must agree with the
   row-at-a-time [Oracle.Exec.run] on every query — the same columns,
   cells of the same constructor that [Value.compare] calls equal, the
   same rows scanned/predicted and violations, or the same exception.

   Queries come from rule-based templates over the supported subset, in
   the style of SynQL's template-driven generation: projections,
   ungrouped aggregates and GROUP BY over 1-2 keys (PREDICT included),
   with arithmetic, CASE, comparisons, AND/OR/NOT, all five aggregates,
   WHERE conjuncts the VM can and cannot take, ORDER BY and LIMIT.
   Frames hold NULL, NaN, Int/Float aliases (1 and 1.0), a mixed-type
   column and an all-NULL one. Each query runs bare and behind a guard
   plus a model. The 48 workload queries are checked too. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Frame = Dataframe.Frame
module Exec = Sqlexec.Exec
module Rng = Stat.Rng
module Dsl = Guardrail.Dsl
module Validator = Guardrail.Validator

let s v = Value.String v

(* ---------------------------------------------------------------- *)
(* Frames *)

let schema =
  Schema.make
    [ Schema.categorical "g"; Schema.numeric "x"; Schema.numeric "y";
      Schema.categorical "m"; Schema.categorical "e"; Schema.categorical "label" ]

let pick rng arr = arr.(Rng.int rng (Array.length arr))

(* Per-frame flavours decide which conjuncts the VM may take: a NaN in
   [x] keeps [x < k] residual, a string in [m] keeps every [m] range
   residual. *)
let random_frame rng =
  let nrows = Rng.int rng 61 in
  let x_pool =
    if Rng.bool rng then
      Value.[| Int 0; Int 1; Float 1.0; Int 2; Float 2.5; Int 3; Null; Float Float.nan |]
    else Value.[| Int 0; Int 1; Float 1.0; Int 2; Float 2.5; Int 3; Null |]
  in
  let m_pool =
    if Rng.bool rng then Value.[| Int 1; Float 1.0; Int 2; Null |]
    else Value.[| s "a"; s "p"; Int 1; Float 1.0; Bool true; Null |]
  in
  let rows =
    List.init nrows (fun _ ->
        [|
          pick rng Value.[| s "a"; s "b"; s "c"; Null |];
          pick rng x_pool;
          pick rng Value.[| Int 1; Float 1.0; Int 2; Float 2.0; Float 3.5; Int 4; Null |];
          pick rng m_pool;
          Value.Null;
          pick rng [| s "yes"; s "no" |];
        |])
  in
  Frame.of_rows schema rows

(* The model: label = yes iff g = a and y >= 2, trained once. *)
let model =
  lazy
    (let rng = Rng.create 7 in
     let rows =
       List.init 400 (fun _ ->
           let g = pick rng [| s "a"; s "b"; s "c" |] in
           let y = pick rng Value.[| Int 1; Int 2; Float 3.5; Int 4 |] in
           let yes = Value.equal g (s "a") && Value.compare y (Value.Int 2) >= 0 in
           [| g; pick rng Value.[| Int 0; Int 1; Int 2 |]; y; pick rng [| s "a"; s "p" |];
              Value.Null; s (if yes then "yes" else "no") |])
     in
     Mlmodel.Ensemble.train (Frame.of_rows schema rows) ~label:"label")

(* The guard: GIVEN g ON m, with aliased (1 vs 1.0) and never-matching
   branches. *)
let guard =
  lazy
    (let g = Schema.index schema "g" and m = Schema.index schema "m" in
     let branch v a = Dsl.branch ~condition:[ Dsl.eq g v ] ~assignment:(Dsl.Eq a) in
     Validator.compile
       (Dsl.prog ~schema
          [ Dsl.stmt ~given:[ g ] ~on:m
              ~branches:
                [ branch (s "a") (s "p"); branch (s "b") (Value.Int 1);
                  branch (s "zz") (Value.Float 1.0) ] ]))

(* ---------------------------------------------------------------- *)
(* Query templates *)

let cols = [| "g"; "x"; "y"; "m"; "e" |]

let literal rng =
  pick rng [| "0"; "1"; "1.0"; "2"; "2.5"; "'a'"; "'p'"; "TRUE"; "NULL" |]

let cmp_op rng = pick rng [| "="; "<>"; "<"; "<="; ">"; ">=" |]

let column rng =
  (* rare unknown names: the same error must surface first *)
  if Rng.int rng 20 = 0 then pick rng [| "nope"; "nada" |] else pick rng cols

(* Scalar expressions of bounded depth. *)
let rec scalar rng depth =
  let leaf () =
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 -> column rng
    | 5 | 6 | 7 -> literal rng
    | 8 -> "(m * 1)"  (* raises on string cells, naming the cell *)
    | _ -> "PREDICT(label)"
  in
  if depth = 0 then leaf ()
  else
    let sub () = scalar rng (depth - 1) in
    match Rng.int rng 9 with
    | 0 | 1 | 2 -> leaf ()
    | 3 -> Printf.sprintf "(%s %s %s)" (sub ()) (pick rng [| "+"; "-"; "*"; "/" |]) (sub ())
    | 4 -> Printf.sprintf "(%s %s %s)" (sub ()) (cmp_op rng) (sub ())
    | 5 -> Printf.sprintf "(%s %s %s)" (sub ()) (pick rng [| "AND"; "OR" |]) (sub ())
    | 6 -> Printf.sprintf "(NOT %s)" (sub ())
    | _ -> case rng sub

and case rng sub =
  let whens =
    List.init (1 + Rng.int rng 2) (fun _ -> Printf.sprintf "WHEN %s THEN %s" (sub ()) (sub ()))
  in
  let else_ = if Rng.bool rng then Printf.sprintf " ELSE %s" (sub ()) else "" in
  Printf.sprintf "CASE %s%s END" (String.concat " " whens) else_

(* Aggregate expressions: aggregates of scalars, combined with
   arithmetic, comparison, CASE and boolean connectives. *)
let rec aggregate rng depth =
  let agg () =
    if Rng.int rng 4 = 0 then "COUNT(*)"
    else
      Printf.sprintf "%s(%s)"
        (pick rng [| "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" |])
        (scalar rng 1)
  in
  if depth = 0 then agg ()
  else
    let sub () = aggregate rng (depth - 1) in
    match Rng.int rng 8 with
    | 0 | 1 | 2 -> agg ()
    | 3 -> Printf.sprintf "(%s %s %s)" (sub ()) (pick rng [| "+"; "-"; "*"; "/" |]) (literal rng)
    | 4 -> Printf.sprintf "(%s %s %s)" (sub ()) (cmp_op rng) (sub ())
    | 5 -> Printf.sprintf "(%s %s %s)" (sub ()) (pick rng [| "AND"; "OR" |]) (sub ())
    | 6 -> Printf.sprintf "(NOT %s)" (sub ())
    | _ -> case rng sub

(* WHERE conjuncts: column-vs-literal shapes the VM may take (in both
   operand orders), shapes it never takes, and PREDICT() filters. *)
let conjunct rng =
  match Rng.int rng 6 with
  | 0 | 1 -> Printf.sprintf "%s %s %s" (column rng) (cmp_op rng) (literal rng)
  | 2 -> Printf.sprintf "%s %s %s" (literal rng) (cmp_op rng) (column rng)
  | 3 -> Printf.sprintf "PREDICT(label) = %s" (pick rng [| "'yes'"; "'no'" |])
  | 4 -> Printf.sprintf "%s BETWEEN %s AND %s" (column rng) (literal rng) (literal rng)
  | _ -> scalar rng 2

let where rng =
  match Rng.int rng 4 with
  | 0 -> ""
  | k -> " WHERE " ^ String.concat " AND " (List.init k (fun _ -> conjunct rng))

let order_limit rng order_exprs =
  let order =
    match Rng.int rng 3, order_exprs with
    | 0, _ | _, [||] -> ""
    | _ ->
      " ORDER BY "
      ^ String.concat ", "
          (List.init (1 + Rng.int rng 2) (fun _ ->
               pick rng order_exprs ^ pick rng [| ""; " ASC"; " DESC" |]))
  in
  let limit = if Rng.int rng 3 = 0 then Printf.sprintf " LIMIT %d" (Rng.int rng 8) else "" in
  order ^ limit

let group_key rng =
  match Rng.int rng 8 with
  | 0 -> "PREDICT(label)"
  | 1 -> Printf.sprintf "(x + %s)" (literal rng)
  | 2 -> "(m * 1)"
  | 3 -> pick rng [| "nope"; "nada" |]
  | _ -> pick rng cols

let query rng =
  let item i e = if Rng.bool rng then Printf.sprintf "%s AS c%d" e i else e in
  match Rng.int rng 3 with
  | 0 ->
    let exprs = List.init (1 + Rng.int rng 3) (fun _ -> scalar rng 2) in
    Printf.sprintf "SELECT %s FROM t%s%s"
      (String.concat ", " (List.mapi item exprs))
      (where rng)
      (order_limit rng (Array.of_list (exprs @ [ "c0"; column rng ])))
  | 1 ->
    let exprs = List.init (1 + Rng.int rng 3) (fun _ -> aggregate rng 2) in
    Printf.sprintf "SELECT %s FROM t%s%s"
      (String.concat ", " (List.mapi item exprs))
      (where rng)
      (order_limit rng (Array.of_list exprs))
  | _ ->
    let keys = List.init (1 + Rng.int rng 2) (fun _ -> group_key rng) in
    let aggs = List.init (1 + Rng.int rng 2) (fun _ -> aggregate rng 2) in
    let exprs = keys @ aggs in
    Printf.sprintf "SELECT %s FROM t%s GROUP BY %s%s"
      (String.concat ", " (List.mapi item exprs))
      (where rng) (String.concat ", " keys)
      (order_limit rng (Array.of_list (exprs @ [ "c0" ])))

(* ---------------------------------------------------------------- *)
(* Comparison *)

let constructor = function
  | Value.Null -> 0
  | Value.Bool _ -> 1
  | Value.Int _ -> 2
  | Value.Float _ -> 3
  | Value.String _ -> 4

let same_cell a b = constructor a = constructor b && Value.compare a b = 0

let outcome f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

let show_rows (r : Exec.result) =
  String.concat "\n"
    (List.map
       (fun row ->
         String.concat " | "
           (Array.to_list (Array.map (Fmt.str "%a" Value.pp) row)))
       r.Exec.rows)

(* [None] when the executor and the oracle agree, else what differs. *)
let diff executor oracle =
  match executor, oracle with
  | Error a, Error b -> if a = b then None else Some (Printf.sprintf "raised %s vs %s" a b)
  | Ok _, Error b -> Some ("only the oracle raised " ^ b)
  | Error a, Ok _ -> Some ("only the executor raised " ^ a)
  | Ok (a : Exec.result), Ok (b : Exec.result) ->
    let sa = a.Exec.stats and sb = b.Exec.stats in
    if a.Exec.columns <> b.Exec.columns then Some "columns differ"
    else if
      sa.Exec.rows_scanned <> sb.Exec.rows_scanned
      || sa.Exec.rows_predicted <> sb.Exec.rows_predicted
      || sa.Exec.violations <> sb.Exec.violations
    then Some "stats differ"
    else if
      List.length a.Exec.rows <> List.length b.Exec.rows
      || not
           (List.for_all2
              (fun x y -> Array.length x = Array.length y && Array.for_all2 same_cell x y)
              a.Exec.rows b.Exec.rows)
    then Some (Printf.sprintf "rows differ:\n%s\n-- vs oracle --\n%s" (show_rows a) (show_rows b))
    else None

(* Run [sql] against [frame] on both paths, bare or guarded. *)
let check_query ?(strategy = Validator.Rectify) ~guarded frame sql =
  let ctx = Exec.create () and octx = Oracle.Exec.create () in
  Exec.register_table ctx "t" frame;
  Oracle.Exec.register_table octx "t" frame;
  if guarded then begin
    let m = Lazy.force model and c = Lazy.force guard in
    Exec.register_model ctx ~target:"label" m;
    Oracle.Exec.register_model octx ~target:"label" m;
    Exec.set_guard ctx ~strategy c;
    Oracle.Exec.set_guard octx ~strategy c
  end;
  diff (outcome (fun () -> Exec.run ctx sql)) (outcome (fun () -> Oracle.Exec.run octx sql))

(* The table the query sees: the frame, its columns reordered (the
   guard re-binds by name), or without the guard's [m] column (the
   guard does not fit). *)
let layout rng frame =
  match Rng.int rng 8 with
  | 0 -> Frame.project frame [ "label"; "e"; "m"; "y"; "x"; "g" ]
  | 1 -> Frame.project frame [ "g"; "x"; "y"; "e"; "label" ]
  | _ -> frame

let qcheck_random =
  QCheck.Test.make ~name:"executor = oracle on template queries" ~count:2000
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let frame = layout rng (random_frame rng) in
      let sql = query rng in
      let strategy =
        pick rng Validator.[| Rectify; Rectify; Rectify; Coerce; Ignore; Raise |]
      in
      List.for_all
        (fun guarded ->
          match check_query ~strategy ~guarded frame sql with
          | None -> true
          | Some why ->
            QCheck.Test.fail_reportf "%s\n(guarded=%b, %d rows): %s" sql guarded
              (Frame.nrows frame) why)
        [ false; true ])

(* Aggregate expressions over the empty ungrouped group, and
   CASE/NOT/AND/OR over aggregates, on fixed queries: the random
   templates reach these shapes only now and then. *)
let test_aggregate_expressions () =
  let rng = Rng.create 3 in
  let frame = random_frame rng in
  List.iter
    (fun sql ->
      match check_query ~guarded:false frame sql with
      | None -> ()
      | Some why -> Alcotest.failf "%s: %s" sql why)
    [
      "SELECT COUNT(*) + 1 AS n FROM t WHERE y > 100";
      "SELECT COUNT(*) > 0 FROM t WHERE y > 100";
      "SELECT CASE WHEN COUNT(*) > 1 THEN 1 ELSE 0 END, NOT (MAX(y) > 2) FROM t WHERE y > 100";
      "SELECT g, CASE WHEN COUNT(*) > 1 THEN 1 ELSE 0 END FROM t GROUP BY g";
      "SELECT g, COUNT(*) > 1 AND MIN(y) < 2, COUNT(*) = 1 OR NOT (SUM(y) > 3) FROM t GROUP BY g";
    ]

(* A guard that raises behind a WHERE that drops the leading rows: the
   violation is numbered by its position among the kept rows, as on the
   gathered rows, not by its table row. *)
let test_raise_numbering () =
  let row g m = Value.[| s g; Int 1; Int 2; m; Null; s "yes" |] in
  let frame =
    Frame.of_rows schema
      [ row "c" (s "p"); row "b" (Value.Int 1); row "c" (s "a"); row "a" (s "p");
        row "a" (s "a"); row "b" (s "p") ]
  in
  let sql = "SELECT PREDICT(label), COUNT(*) FROM t WHERE g = 'a' GROUP BY PREDICT(label)" in
  (match check_query ~strategy:Validator.Raise ~guarded:true frame sql with
   | None -> ()
   | Some why -> Alcotest.failf "%s: %s" sql why);
  let ctx = Exec.create () in
  Exec.register_table ctx "t" frame;
  Exec.register_model ctx ~target:"label" (Lazy.force model);
  Exec.set_guard ctx ~strategy:Validator.Raise (Lazy.force guard);
  match Exec.run ctx sql with
  | _ -> Alcotest.fail "the guard did not raise"
  | exception Validator.Violation_error msg ->
    Alcotest.(check bool) ("numbered by position: " ^ msg) true
      (String.length msg > 6 && String.sub msg 0 6 = "row 1:")

(* ---------------------------------------------------------------- *)
(* The 48 workload queries, each over its dataset's corrupted test
   split behind a Rectify guard synthesized on the train split. *)

let test_workloads () =
  List.iter
    (fun spec ->
      let id = spec.Datagen.Spec.id in
      let built, frame = Datagen.Generate.dataset ~n_rows:600 spec in
      let train, test = Dataframe.Split.train_test ~seed:id ~train_fraction:0.5 frame in
      let synth = Guardrail.Synthesize.run train in
      let program = Validator.rebind synth.Guardrail.Synthesize.program (Frame.schema test) in
      let columns =
        match Dsl.constrained_attributes program with
        | [] ->
          List.map (fun i -> Frame.index test built.Datagen.Netlib.names.(i))
            built.Datagen.Netlib.constrained
        | cols -> cols
      in
      let corrupted =
        (Datagen.Corrupt.inject ~seed:id ~n_errors:(max 1 (Frame.nrows test * 7 / 100))
           ~columns test).Datagen.Corrupt.corrupted
      in
      let label = spec.Datagen.Spec.label in
      let model = Mlmodel.Ensemble.train train ~label in
      let compiled = Validator.compile program in
      let ctx = Exec.create () and octx = Oracle.Exec.create () in
      Exec.register_table ctx "t" corrupted;
      Oracle.Exec.register_table octx "t" corrupted;
      Exec.register_model ctx ~target:label model;
      Oracle.Exec.register_model octx ~target:label model;
      Exec.set_guard ctx compiled;
      Oracle.Exec.set_guard octx compiled;
      List.iter
        (fun (q : Datagen.Workloads.query) ->
          let sql = q.Datagen.Workloads.sql in
          match
            diff (outcome (fun () -> Exec.run ctx sql))
              (outcome (fun () -> Oracle.Exec.run octx sql))
          with
          | None -> ()
          | Some why -> Alcotest.failf "%s (%s): %s" q.Datagen.Workloads.id sql why)
        (Datagen.Workloads.for_dataset built test))
    Datagen.Spec.all

let () =
  Alcotest.run "sql_differential"
    [
      ("random", [ QCheck_alcotest.to_alcotest qcheck_random ]);
      ( "fixed",
        [ Alcotest.test_case "aggregate expressions" `Quick test_aggregate_expressions;
          Alcotest.test_case "raise numbers kept rows" `Quick test_raise_numbering ] );
      ("workloads", [ Alcotest.test_case "48 queries match the oracle" `Quick test_workloads ]);
    ]
