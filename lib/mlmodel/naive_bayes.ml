(* Categorical naive Bayes with Laplace smoothing.

   P(y | x) ∝ P(y) * Π_j P(x_j | y); all factors are estimated by smoothed
   counting over integer-coded features. Training and scoring run a
   feature column at a time; a row's score for label y is still its
   prior plus its features' log-likelihoods added in feature order, so
   the floats do not depend on the layout. *)

type t = {
  n_labels : int;
  cards : int array;                   (* feature cardinalities *)
  log_prior : float array;
  log_likelihood : float array array;  (* feature -> value * n_labels + label *)
}

let train ~cards ~n_labels xs ys =
  let n = Array.length ys in
  if n = 0 then invalid_arg "Naive_bayes.train: empty training set";
  let label_counts = Array.make n_labels 0 in
  Array.iter (fun y -> if y >= 0 then label_counts.(y) <- label_counts.(y) + 1) ys;
  let total = Array.fold_left ( + ) 0 label_counts in
  let log_prior =
    Array.map
      (fun c ->
        log ((float_of_int c +. 1.0) /. (float_of_int total +. float_of_int n_labels)))
      label_counts
  in
  let log_likelihood =
    Array.mapi
      (fun j x ->
        let counts = Array.make (cards.(j) * n_labels) 0 in
        for i = 0 to n - 1 do
          let y = ys.(i) in
          if y >= 0 then begin
            let k = (x.(i) * n_labels) + y in
            counts.(k) <- counts.(k) + 1
          end
        done;
        Array.mapi
          (fun k c ->
            log
              ((float_of_int c +. 1.0)
              /. (float_of_int label_counts.(k mod n_labels) +. float_of_int cards.(j))))
          counts)
      xs
  in
  { n_labels; cards; log_prior; log_likelihood }

let log_scores t (cols : Features.column array) rows =
  let l = t.n_labels in
  let m = Array.length rows in
  let out = Array.make (m * l) 0.0 in
  for k = 0 to m - 1 do
    Array.blit t.log_prior 0 out (k * l) l
  done;
  Array.iteri
    (fun j (c : Features.column) ->
      let ll = t.log_likelihood.(j) and card = t.cards.(j) in
      for k = 0 to m - 1 do
        let v = c.remap.(c.codes.(rows.(k))) in
        if v >= 0 && v < card then begin
          let v = v * l and o = k * l in
          for y = 0 to l - 1 do
            out.(o + y) <- out.(o + y) +. ll.(v + y)
          done
        end
      done)
    cols;
  out

let predict t cols rows =
  let l = t.n_labels in
  let scores = log_scores t cols rows in
  Array.init (Array.length rows) (fun k ->
      let o = k * l in
      let best = ref 0 in
      for y = 1 to l - 1 do
        if scores.(o + y) > scores.(o + !best) then best := y
      done;
      !best)
