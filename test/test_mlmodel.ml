(* Tests for the ML substrate: feature encoding, naive Bayes, decision
   trees and the ensemble. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Frame = Dataframe.Frame
module Features = Mlmodel.Features
module Naive_bayes = Mlmodel.Naive_bayes
module Decision_tree = Mlmodel.Decision_tree
module Ensemble = Mlmodel.Ensemble

let s v = Value.String v
let value = Alcotest.testable Value.pp Value.equal

(* a frame fitted on its own "label" column: cardinalities, training
   columns, label codes and the frame's model columns *)
let encoded frame =
  let enc = Features.fit frame ~label:"label" in
  ( Features.cards enc, Features.encode_columns enc frame, Features.labels enc frame,
    Features.columns enc frame )

(* one feature vector as one-row model columns *)
let row_cols x = Array.map (fun v -> { Features.remap = [| v |]; codes = [| 0 |] }) x

(* label = AND of two binary features, with a distractor column *)
let and_frame ?(n = 400) ?(noise = 0.0) () =
  let schema =
    Schema.make
      [ Schema.categorical "x"; Schema.categorical "y"; Schema.categorical "junk";
        Schema.categorical "label" ]
  in
  let rng = Stat.Rng.create 42 in
  let rows =
    List.init n (fun _ ->
        let x = Stat.Rng.int rng 2 and y = Stat.Rng.int rng 2 in
        let l = if x = 1 && y = 1 then "yes" else "no" in
        let l =
          if Stat.Rng.float rng < noise then (if l = "yes" then "no" else "yes")
          else l
        in
        [| s (string_of_int x); s (string_of_int y);
           s (string_of_int (Stat.Rng.int rng 4)); s l |])
  in
  Frame.of_rows schema rows

(* ------------------------------------------------------------------ *)
(* Features *)

let test_features_encoding () =
  let frame = and_frame () in
  let enc = Features.fit frame ~label:"label" in
  Alcotest.(check int) "3 features" 3 (Features.n_features enc);
  Alcotest.(check int) "2 labels" 2 (Features.n_labels enc);
  let xs = Features.encode_columns enc frame and ys = Features.labels enc frame in
  Alcotest.(check int) "row count" (Frame.nrows frame) (Array.length xs.(0));
  Alcotest.(check int) "label count" (Frame.nrows frame) (Array.length ys);
  Alcotest.(check bool) "labels in range" true
    (Array.for_all (fun y -> y >= 0 && y < 2) ys)

let test_features_unknown_value () =
  let frame = and_frame () in
  let enc = Features.fit frame ~label:"label" in
  let schema = Frame.schema frame in
  let odd = Frame.of_rows schema [ [| s "NEVER_SEEN"; s "1"; s "0"; s "yes" |] ] in
  let x = Features.row_columns enc odd 0 in
  Alcotest.(check int) "unknown maps to reserved code" (Features.unknown_code enc 0)
    (Features.get x.(0) 0)

let test_features_label_roundtrip () =
  let frame = and_frame () in
  let enc = Features.fit frame ~label:"label" in
  (match Features.label_code enc (s "yes") with
   | Some c -> Alcotest.(check value) "roundtrip" (s "yes") (Features.label_value enc c)
   | None -> Alcotest.fail "label yes must exist");
  Alcotest.(check (option int)) "unknown label" None (Features.label_code enc (s "zzz"))

(* ------------------------------------------------------------------ *)
(* Naive Bayes *)

let test_naive_bayes_learns_and () =
  let cards, xs, ys, cols = encoded (and_frame ()) in
  let rows = Array.init (Array.length ys) Fun.id in
  let nb = Naive_bayes.train ~cards ~n_labels:2 xs ys in
  (* accuracy should dominate the base rate (~75% no) *)
  let correct = ref 0 in
  Array.iteri (fun i y -> if y = ys.(i) then incr correct) (Naive_bayes.predict nb cols rows);
  Alcotest.(check bool) "beats base rate" true
    (float_of_int !correct /. float_of_int (Array.length rows) > 0.80)

let test_naive_bayes_scores_sum () =
  let cards, xs, ys, cols = encoded (and_frame ()) in
  let nb = Naive_bayes.train ~cards ~n_labels:2 xs ys in
  let scores = Naive_bayes.log_scores nb cols [| 0 |] in
  Alcotest.(check int) "two scores" 2 (Array.length scores);
  Alcotest.(check bool) "finite" true (Array.for_all Float.is_finite scores)

(* ------------------------------------------------------------------ *)
(* Decision tree *)

let test_tree_learns_and_exactly () =
  let cards, xs, ys, cols = encoded (and_frame ()) in
  let rows = Array.init (Array.length ys) Fun.id in
  let tree = Decision_tree.train ~cards ~n_labels:2 xs ys in
  let correct = ref 0 in
  let _, labels = Decision_tree.predict_both tree ~shallow:0 cols rows in
  Array.iteri (fun k y -> if y = ys.(rows.(k)) then incr correct) labels;
  Alcotest.(check int) "perfect on noiseless AND" (Array.length rows) !correct;
  Alcotest.(check bool) "shallow" true (Decision_tree.depth tree <= 4)

let test_tree_depth_cap () =
  let cards, xs, ys, _ = encoded (and_frame ~noise:0.3 ()) in
  let tree =
    Decision_tree.train
      ~params:{ Decision_tree.max_depth = 2; min_leaf = 1 } ~cards ~n_labels:2 xs ys
  in
  Alcotest.(check bool) "depth respected" true (Decision_tree.depth tree <= 2)

let test_tree_empty_rejected () =
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Decision_tree.train ~cards:[| 2 |] ~n_labels:2 [||] [||]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Ensemble *)

let test_ensemble_end_to_end () =
  let frame = and_frame ~n:600 () in
  let train, test = Dataframe.Split.train_test ~seed:4 ~train_fraction:0.7 frame in
  let model = Ensemble.train train ~label:"label" in
  let acc = Ensemble.accuracy model test ~label:"label" in
  Alcotest.(check bool) "test accuracy high" true (acc > 0.9)

let test_ensemble_sensitive_to_corruption () =
  (* flipping a constrained input changes the prediction for x=1,y=1 *)
  let frame = and_frame ~n:600 () in
  let model = Ensemble.train frame ~label:"label" in
  let schema = Frame.schema frame in
  let clean = Frame.of_rows schema [ [| s "1"; s "1"; s "0"; s "yes" |] ] in
  let corrupted = Frame.of_rows schema [ [| s "1"; s "0"; s "0"; s "yes" |] ] in
  let p_clean = Ensemble.predict_row model clean 0 in
  let p_corr = Ensemble.predict_row model corrupted 0 in
  Alcotest.(check value) "clean prediction" (s "yes") p_clean;
  Alcotest.(check value) "corrupted prediction flips" (s "no") p_corr

let test_ensemble_predict_frame () =
  let frame = and_frame ~n:100 () in
  let model = Ensemble.train frame ~label:"label" in
  let preds = Ensemble.predict_frame model frame in
  Alcotest.(check int) "one prediction per row" (Frame.nrows frame)
    (Array.length preds)

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_tree_prediction_total =
  QCheck.Test.make ~name:"tree predicts a valid label for any input" ~count:100
    QCheck.(pair (int_bound 5) (int_bound 5))
    (fun (a, b) ->
      let cards, xs, ys, _ = encoded (and_frame ()) in
      let tree = Decision_tree.train ~cards ~n_labels:2 xs ys in
      let _, full = Decision_tree.predict_both tree ~shallow:0 (row_cols [| a; b; 0 |]) [| 0 |] in
      let y = full.(0) in
      y >= 0 && y < 2)

let qcheck_nb_prediction_total =
  QCheck.Test.make ~name:"naive bayes predicts a valid label" ~count:100
    QCheck.(pair (int_bound 5) (int_bound 5))
    (fun (a, b) ->
      let cards, xs, ys, _ = encoded (and_frame ()) in
      let nb = Naive_bayes.train ~cards ~n_labels:2 xs ys in
      let y = (Naive_bayes.predict nb (row_cols [| a; b; 0 |]) [| 0 |]).(0) in
      y >= 0 && y < 2)

let () =
  Alcotest.run "mlmodel"
    [
      ( "features",
        [
          Alcotest.test_case "encoding" `Quick test_features_encoding;
          Alcotest.test_case "unknown values" `Quick test_features_unknown_value;
          Alcotest.test_case "label roundtrip" `Quick test_features_label_roundtrip;
        ] );
      ( "naive_bayes",
        [
          Alcotest.test_case "learns AND" `Quick test_naive_bayes_learns_and;
          Alcotest.test_case "scores" `Quick test_naive_bayes_scores_sum;
        ] );
      ( "decision_tree",
        [
          Alcotest.test_case "learns AND exactly" `Quick test_tree_learns_and_exactly;
          Alcotest.test_case "depth cap" `Quick test_tree_depth_cap;
          Alcotest.test_case "empty rejected" `Quick test_tree_empty_rejected;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "end to end" `Quick test_ensemble_end_to_end;
          Alcotest.test_case "corruption sensitivity" `Quick test_ensemble_sensitive_to_corruption;
          Alcotest.test_case "predict frame" `Quick test_ensemble_predict_frame;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_tree_prediction_total; qcheck_nb_prediction_total ] );
    ]
