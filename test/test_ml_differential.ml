(* Differential suite for the ML models: the column-major [Mlmodel]
   (count-table split search, one tree read at every depth cap,
   column-at-a-time scoring and voting) must equal the row-at-a-time
   [Oracle.Ml] bit for bit:

   - trees: for every cap 0 .. max_depth, the tree grown to max_depth
     and cut at the cap has the depth, size and predictions of the
     oracle tree grown to that cap, and the one walk that reads the cut
     label also reads the whole tree's, equal to the oracle tree grown
     to max_depth;
   - naive Bayes: the same log-score floats (compared by bits) and the
     same predictions;
   - the ensemble: [predict_frame] equals the oracle's and [predict_row]
     on every row, and its label codes at a selection equal the oracle
     on the gathered rows.

   Generated cases hold 3-5 labels with label noise (so the trees and
   naive Bayes disagree), features of up to 124 values, test-time
   values and labels unseen in training, [-1] labels passed straight to
   the trainers, max_depth 0-12 and min_leaf 1-10. The 12 benchmark
   datasets are pinned at 300 rows. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Frame = Dataframe.Frame
module Rng = Stat.Rng
module Features = Mlmodel.Features
module Tree = Mlmodel.Decision_tree
module Nb = Mlmodel.Naive_bayes
module Ensemble = Mlmodel.Ensemble
module O = Oracle.Ml

let failf fmt = Printf.ksprintf failwith fmt

(* rows where the ensemble's two tree caps disagree, so that naive
   Bayes decides: the generator must reach this path *)
let tree_splits = ref 0

(* [train] and [test] share column names; [ys] are [train]'s label
   codes, possibly with some replaced by [-1]. *)
let check_models ~params ~label ~ys train test =
  let { Tree.max_depth; _ } = params in
  let enc = Features.fit train ~label in
  let cards = Features.cards enc and n_labels = Features.n_labels enc in
  let xs = Features.encode_columns enc train in
  let rows_x, _ = O.encode enc train ~label in
  Array.iteri
    (fun i x ->
      Array.iteri (fun j v -> if xs.(j).(i) <> v then failf "encode: row %d feature %d" i j) x)
    rows_x;
  let test_x, _ = O.encode enc test ~label in
  let on_frames f =
    f "train" (Features.columns enc train) rows_x;
    f "test" (Features.columns enc test) test_x
  in
  (* trees: one walk per row yields the labels of the tree cut at
     [cap] and of the whole tree, each equal to the oracle tree grown
     to that depth, at every row and at a sparse selection *)
  let tree = Tree.train ~params ~cards ~n_labels xs ys in
  let o_full = O.Decision_tree.train ~params ~cards ~n_labels rows_x ys in
  let selections rows =
    let n = Array.length rows in
    [ Array.init n Fun.id; Array.of_list (List.filter (fun i -> i mod 3 = 1) (List.init n Fun.id)) ]
  in
  for cap = 0 to max_depth do
    let o = O.Decision_tree.train ~params:{ params with max_depth = cap } ~cards ~n_labels rows_x ys in
    if Tree.depth ~cap tree <> O.Decision_tree.depth o then
      failf "cap %d: depth %d, oracle %d" cap (Tree.depth ~cap tree) (O.Decision_tree.depth o);
    if Tree.size ~cap tree <> O.Decision_tree.size o then
      failf "cap %d: size %d, oracle %d" cap (Tree.size ~cap tree) (O.Decision_tree.size o);
    on_frames (fun name cols rows ->
        List.iter
          (fun sel ->
            let cut, full = Tree.predict_both tree ~shallow:cap cols sel in
            Array.iteri
              (fun k i ->
                if cut.(k) <> O.Decision_tree.predict o rows.(i) then
                  failf "cap %d: %s row %d predicted differently" cap name i;
                if full.(k) <> O.Decision_tree.predict o_full rows.(i) then
                  failf "cap %d: %s row %d: full-depth label differs" cap name i)
              sel)
          (selections rows))
  done;
  on_frames (fun _ cols rows ->
      let cut, full =
        Tree.predict_both tree ~shallow:(max_depth - 4) cols (Array.init (Array.length rows) Fun.id)
      in
      Array.iteri (fun k y -> if y <> full.(k) then incr tree_splits) cut);
  (* naive Bayes *)
  let nb = Nb.train ~cards ~n_labels xs ys in
  let onb = O.Naive_bayes.train ~cards ~n_labels rows_x ys in
  on_frames (fun name cols rows ->
      let sel = Array.init (Array.length rows) Fun.id in
      let scores = Nb.log_scores nb cols sel and preds = Nb.predict nb cols sel in
      Array.iteri
        (fun i x ->
          Array.iteri
            (fun y s ->
              if Int64.bits_of_float s <> Int64.bits_of_float scores.((i * n_labels) + y) then
                failf "%s row %d label %d: log-score %h, oracle %h" name i y
                  scores.((i * n_labels) + y) s)
            (O.Naive_bayes.log_scores onb x);
          if preds.(i) <> O.Naive_bayes.predict onb x then
            failf "%s row %d: naive Bayes predicted differently" name i)
        rows)

let check_ensemble ~params ~label train test =
  let e = Ensemble.train ~tree_params:params train ~label in
  let o = O.Ensemble.train ~tree_params:params train ~label in
  let preds = Ensemble.predict_frame e test in
  let expected = O.Ensemble.predict_frame o test in
  Array.iteri
    (fun i v ->
      if not (Value.equal v expected.(i)) then
        failf "predict_frame row %d: %s, oracle %s" i (Value.to_string v)
          (Value.to_string expected.(i));
      if not (Value.equal v (Ensemble.predict_row e test i)) then
        failf "predict_row row %d differs from predict_frame" i)
    preds;
  (* label codes at a selection equal the oracle on the gathered rows:
     empty, one row, every row, and every third row *)
  let n = Frame.nrows test in
  List.iter
    (fun sel ->
      let gathered = O.Ensemble.predict_frame o (Frame.take test sel) in
      Array.iteri
        (fun k c ->
          let v = (Ensemble.labels e).(c) in
          if not (Value.equal v gathered.(k)) then
            failf "selection of %d rows, position %d (row %d): %s, oracle %s"
              (Array.length sel) k sel.(k) (Value.to_string v)
              (Value.to_string gathered.(k)))
        (Ensemble.predict e test sel))
    [ [||]; [| n - 1 |]; Array.init n Fun.id;
      Array.of_list (List.filter (fun i -> i mod 3 = 2) (List.init n Fun.id)) ]

(* ---------------------------------------------------------------- *)
(* Generated cases *)

let random_case seed =
  let rng = Rng.create seed in
  let d = 1 + Rng.int rng 4 in
  let cards =
    Array.init d (fun _ -> if Rng.int rng 3 = 0 then 65 + Rng.int rng 60 else 1 + Rng.int rng 6)
  in
  let n_labels = 3 + Rng.int rng 3 in
  let noise = Rng.float rng *. 0.4 in
  let label_at = Rng.int rng (d + 1) in
  let names =
    List.init (d + 1) (fun k ->
        if k = label_at then "label" else Printf.sprintf "f%d" (if k < label_at then k else k - 1))
  in
  let schema = Schema.make (List.map Schema.categorical names) in
  (* [extra] widens the value ranges: test rows draw values and labels
     training never saw *)
  let frame ~extra n =
    Frame.of_rows schema
      (List.init n (fun _ ->
           let x = Array.map (fun c -> Rng.int rng (c + extra)) cards in
           let y =
             if Rng.float rng < noise then Rng.int rng (n_labels + extra)
             else (x.(0) + if d > 1 then x.(1) / 2 else 0) mod n_labels
           in
           Array.of_list
             (List.mapi
                (fun k _ ->
                  if k = label_at then Value.String (Printf.sprintf "L%d" y)
                  else
                    Value.String
                      (Printf.sprintf "v%d" x.(if k < label_at then k else k - 1)))
                names)))
  in
  let train = frame ~extra:0 (1 + Rng.int rng 250) in
  let test = frame ~extra:3 (1 + Rng.int rng 60) in
  let params = { Tree.max_depth = Rng.int rng 13; min_leaf = 1 + Rng.int rng 10 } in
  let drop = if Rng.bool rng then 0.0 else Rng.float rng *. 0.3 in
  (rng, params, drop, train, test)

let qcheck_models =
  QCheck.Test.make ~name:"trees and naive Bayes = oracle" ~count:200 QCheck.small_int
    (fun seed ->
      let rng, params, drop, train, test = random_case seed in
      let enc = Features.fit train ~label:"label" in
      let ys =
        Array.map
          (fun y -> if Rng.float rng < drop then -1 else y)
          (Features.labels enc train)
      in
      check_models ~params ~label:"label" ~ys train test;
      true)

let qcheck_ensemble =
  QCheck.Test.make ~name:"ensemble = oracle, predict_frame = predict_row" ~count:200
    QCheck.small_int (fun seed ->
      let _, params, _, train, test = random_case seed in
      check_ensemble ~params ~label:"label" train test;
      true)

let test_generator_reaches_bayes () =
  Alcotest.(check bool) "some rows split the tree caps" true (!tree_splits > 0)

(* ---------------------------------------------------------------- *)
(* The benchmark datasets *)

let test_datasets () =
  List.iter
    (fun (spec : Datagen.Spec.t) ->
      let _, frame = Datagen.Generate.dataset ~n_rows:300 spec in
      let train, test =
        Dataframe.Split.train_test ~seed:(1000 + spec.Datagen.Spec.id) ~train_fraction:0.5 frame
      in
      let label = spec.Datagen.Spec.label in
      let params = Tree.default_params in
      let deep = { params with max_depth = params.max_depth + 4 } in
      try
        let ys = Features.labels (Features.fit train ~label) train in
        check_models ~params:deep ~label ~ys train test;
        check_ensemble ~params ~label train test
      with Failure msg -> Alcotest.failf "%s: %s" spec.Datagen.Spec.name msg)
    Datagen.Spec.all

let () =
  Alcotest.run "ml_differential"
    [ ( "differential",
        List.map QCheck_alcotest.to_alcotest [ qcheck_models; qcheck_ensemble ]
        @ [ Alcotest.test_case "generator reaches naive Bayes" `Quick
              test_generator_reaches_bayes ] );
      ("datasets", [ Alcotest.test_case "12 datasets = oracle" `Quick test_datasets ]) ]
