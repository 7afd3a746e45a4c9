(* The AutoML stand-in (paper §7 uses autogluon): naive Bayes and two
   decision trees vote, with the naive-Bayes posterior breaking ties.
   The public API works directly on dataframes.

   The two trees are one tree grown [max_depth + 4] deep and read at
   two depths on one walk down each row's path (see {!Decision_tree}).
   With three voters, a label wins when the trees agree, and naive Bayes
   decides otherwise, so only the rows whose two labels differ are
   scored by naive Bayes.

   Prediction runs over a frame and a selection of its rows, reading
   the frame's own code arrays, and returns label codes: the encoder's
   label dictionary ({!labels}) turns them into values only where a
   caller reads them. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value

type t = {
  encoder : Features.t;
  bayes : Naive_bayes.t;
  tree : Decision_tree.t;   (* grown to [shallow + 4] *)
  shallow : int;            (* depth cap of the shallow member *)
}

let train ?(tree_params = Decision_tree.default_params) frame ~label =
  let encoder = Features.fit frame ~label in
  let xs = Features.encode_columns encoder frame in
  let ys = Features.labels encoder frame in
  let cards = Features.cards encoder in
  let n_labels = Features.n_labels encoder in
  let bayes = Naive_bayes.train ~cards ~n_labels xs ys in
  let tree =
    Decision_tree.train
      ~params:{ tree_params with Decision_tree.max_depth = tree_params.Decision_tree.max_depth + 4 }
      ~cards ~n_labels xs ys
  in
  { encoder; bayes; tree; shallow = tree_params.Decision_tree.max_depth }

(* Label codes of the rows [rows] of [cols], by position: where the
   trees agree their label wins, and naive Bayes scores the rest. *)
let predict_cols t cols rows =
  let cut, out = Decision_tree.predict_both t.tree ~shallow:t.shallow cols rows in
  let m = Array.length rows in
  let split = Array.make m 0 and n_split = ref 0 in
  for k = 0 to m - 1 do
    if cut.(k) <> out.(k) then begin
      split.(!n_split) <- k;
      incr n_split
    end
  done;
  let split = Array.sub split 0 !n_split in
  Array.iteri
    (fun j y -> out.(split.(j)) <- y)
    (Naive_bayes.predict t.bayes cols (Array.map (Array.get rows) split));
  out

let predict t frame rows = predict_cols t (Features.columns t.encoder frame) rows

let labels t = Array.init (Features.n_labels t.encoder) (Features.label_value t.encoder)

(* Predict the label value of one row of a frame with the same column
   names (the label column may be absent or stale; it is ignored). *)
let predict_row t frame row =
  Features.label_value t.encoder
    (predict_cols t (Features.row_columns t.encoder frame row) [| 0 |]).(0)

let predict_frame t frame =
  Array.map (Features.label_value t.encoder)
    (predict t frame (Array.init (Frame.nrows frame) Fun.id))

(* Accuracy against the frame's label column. *)
let accuracy t frame ~label =
  let n = Frame.nrows frame in
  if n = 0 then Float.nan
  else begin
    let preds = predict_frame t frame in
    let labels = Frame.column_by_name frame label in
    let correct = ref 0 in
    for i = 0 to n - 1 do
      if Value.equal preds.(i) (Dataframe.Column.get labels i) then incr correct
    done;
    float_of_int !correct /. float_of_int n
  end
