(* The AutoML stand-in (paper §7 uses autogluon): naive Bayes and two
   decision trees vote, with the naive-Bayes posterior breaking ties.
   The public API works directly on dataframes.

   The two trees are one tree grown [max_depth + 4] deep and read at
   two depth caps (see {!Decision_tree}). With three voters, a label
   wins when the trees agree, and naive Bayes decides otherwise, so
   only the rows whose caps disagree are scored by naive Bayes. *)

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

(* Label values of rows [0 .. n - 1] of [cols]. *)
let predict t cols n =
  let out = Array.make n 0 in
  let split = ref [] in
  for i = n - 1 downto 0 do
    let deep = Decision_tree.predict t.tree cols i in
    if Decision_tree.predict ~cap:t.shallow t.tree cols i = deep then out.(i) <- deep
    else split := i :: !split
  done;
  let split = Array.of_list !split in
  Array.iteri (fun k y -> out.(split.(k)) <- y) (Naive_bayes.predict t.bayes cols split);
  Array.map (Features.label_value t.encoder) out

(* Predict the label value of one row of a frame with the same column
   names (the label column may be absent or stale; it is ignored). *)
let predict_row t frame row = (predict t (Features.row_columns t.encoder frame row) 1).(0)

let predict_frame t frame = predict t (Features.columns t.encoder frame) (Frame.nrows frame)

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
