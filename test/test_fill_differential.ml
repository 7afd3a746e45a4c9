(* Differential suite for the HAVING fill (Alg. 1):
   [Guardrail.Fill.fill_stmt_sketch], which walks each determinant
   group's rows into one touched-reset scratch row and tracks the
   arg-max as it counts, must return what the histogram-based
   [Oracle.Fill] returns: the same statement, coverage, loss and
   support, compared bit for bit (floats included), or [None] for both.

   Random frames mix narrow and wide categorical columns (more distinct
   values than rows per group), binned numeric columns with nulls, and
   tiny value pools whose groups tie on their top count. The 12
   benchmark datasets are pinned at 2,000 rows, over every single- and
   adjacent-pair GIVEN set, with and without a shared grouping cache. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Frame = Dataframe.Frame
module Group = Dataframe.Group
module Fill = Guardrail.Fill
module Sketch = Guardrail.Sketch
module Rng = Stat.Rng

(* floats by their bits, no sharing: two results print the same bytes
   iff they are equal bit for bit *)
let bits (r : Fill.filled option) = Marshal.to_string r [ Marshal.No_sharing ]

let agree ?groups frame ~epsilon sk =
  bits (Fill.fill_stmt_sketch ?groups frame ~epsilon sk)
  = bits (Oracle.Fill.fill_stmt_sketch frame ~epsilon sk)

(* ---------------------------------------------------------------- *)
(* Random frames *)

type column_kind = Narrow | Wide | Tied | Binned

let cell rng kind nrows =
  match kind with
  | Narrow -> Value.String (Printf.sprintf "v%d" (Rng.int rng 4))
  | Wide -> Value.Int (Rng.int rng (max 1 (2 * nrows)))
  | Tied -> if Rng.bool rng then Value.String "a" else Value.String "b"
  | Binned -> (
    match Rng.int rng 12 with
    | 0 -> Value.Null
    | 1 -> Value.Int (Rng.int rng 50)
    | _ -> Value.Float (50.0 *. Rng.float rng))

let random_case seed =
  let rng = Rng.create seed in
  let ncols = 2 + Rng.int rng 3 in
  let nrows = Rng.int rng 300 in
  let kinds =
    Array.init ncols (fun _ -> [| Narrow; Wide; Tied; Binned |].(Rng.int rng 4))
  in
  let schema =
    Schema.make
      (Array.to_list
         (Array.mapi
            (fun j k ->
              let name = Printf.sprintf "c%d" j in
              if k = Binned then Schema.numeric name else Schema.categorical name)
            kinds))
  in
  let rows = List.init nrows (fun _ -> Array.map (fun k -> cell rng k nrows) kinds) in
  let frame = Frame.learn_domains ~bins:(2 + Rng.int rng 8) (Frame.of_rows schema rows) in
  let on = Rng.int rng ncols in
  let others = List.filter (fun j -> j <> on) (List.init ncols Fun.id) in
  let given = List.filter (fun _ -> Rng.bool rng) others in
  let given = if given = [] then [ List.hd others ] else given in
  let epsilon = [| 0.0; 0.05; 0.1; 0.3; 1.0 |].(Rng.int rng 5) in
  (frame, Sketch.stmt_sketch ~given ~on, epsilon)

let qcheck_random =
  QCheck.Test.make ~name:"fill = histogram oracle on random frames" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let frame, sk, epsilon = random_case seed in
      agree frame ~epsilon sk
      && agree ~groups:(Group.Cache.of_frame frame) frame ~epsilon sk)

(* Ties decide the assignment: two codes with the same top count go to
   the lower code, in both implementations. Codes are in first-occurrence
   order, b = 0, a = 1, c = 2, so group x's b/a tie goes to b and group
   y's c/a tie to a. *)
let test_ties () =
  let schema = Schema.make [ Schema.categorical "k"; Schema.categorical "v" ] in
  let rows =
    List.concat_map
      (fun (k, vs) -> List.map (fun v -> [| Value.String k; Value.String v |]) vs)
      [ ("x", [ "b"; "a"; "b"; "a" ]); ("y", [ "c"; "c"; "a"; "a"; "b" ]) ]
  in
  let frame = Frame.of_rows schema rows in
  let sk = Sketch.stmt_sketch ~given:[ 0 ] ~on:1 in
  Alcotest.(check bool) "same as oracle" true (agree frame ~epsilon:0.6 sk);
  match Fill.fill_stmt_sketch frame ~epsilon:0.6 sk with
  | Some f ->
    Alcotest.(check (list string)) "lowest code of each tie" [ "b"; "a" ]
      (List.map
         (fun (b : Guardrail.Dsl.branch) ->
           match b.Guardrail.Dsl.assignment with
           | Guardrail.Dsl.Eq v -> Value.to_string v
           | _ -> "?")
         f.Fill.stmt.Guardrail.Dsl.branches)
  | None -> Alcotest.fail "expected a statement"

(* ---------------------------------------------------------------- *)
(* The benchmark inputs *)

let test_datasets () =
  List.iter
    (fun (spec : Datagen.Spec.t) ->
      let _, frame = Datagen.Generate.dataset ~n_rows:2000 ~seed_offset:1 spec in
      let frame = Frame.ensure_domains ~bins:Guardrail.Config.bins frame in
      let groups = Group.Cache.of_frame frame in
      let m = Frame.ncols frame in
      for on = 0 to m - 1 do
        let givens =
          List.filter_map
            (fun g ->
              let g = List.sort_uniq Int.compare (List.filter (fun c -> c <> on) g) in
              if g = [] then None else Some g)
            (List.init m (fun j -> [ j ]) @ List.init m (fun j -> [ j; (j + 1) mod m ]))
        in
        List.iter
          (fun given ->
            let sk = Sketch.stmt_sketch ~given ~on in
            if not (agree frame ~epsilon:0.1 sk && agree ~groups frame ~epsilon:0.1 sk)
            then
              Alcotest.failf "%s: GIVEN %s ON %d differs from the oracle"
                spec.Datagen.Spec.name
                (String.concat "," (List.map string_of_int given))
                on)
          givens
      done)
    Datagen.Spec.all

let () =
  Alcotest.run "fill_differential"
    [ ( "differential",
        [ Alcotest.test_case "ties" `Quick test_ties;
          QCheck_alcotest.to_alcotest qcheck_random ] );
      ("datasets", [ Alcotest.test_case "12 datasets = oracle" `Quick test_datasets ]) ]
