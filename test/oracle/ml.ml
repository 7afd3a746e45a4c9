(* Row-at-a-time ML models: one feature vector per row, one pass over a
   node's rows per candidate split value, one tree per depth, and one
   model evaluation per row — the semantics the column-major
   [Mlmodel] must reproduce bit for bit (trees, log-scores and
   predictions). Only the fitted encoder is shared with [Mlmodel]. *)

module Frame = Dataframe.Frame
module Features = Mlmodel.Features

(* Fitted codes of one row, one dictionary lookup per cell. *)
let encode_row enc frame row =
  Array.of_list
    (List.mapi
       (fun j name -> Features.code enc j (Frame.get_by_name frame row name))
       (Features.feature_names enc))

(* Feature matrix (one vector per row) plus label codes (unknown labels
   become -1). *)
let encode enc frame ~label =
  let n = Frame.nrows frame in
  ( Array.init n (encode_row enc frame),
    Array.init n (fun i ->
        Option.value ~default:(-1)
          (Features.label_code enc (Frame.get_by_name frame i label))) )

module Naive_bayes = struct
  type t = {
    n_labels : int;
    cards : int array;
    log_prior : float array;
    log_likelihood : float array array array;  (* feature -> value -> label *)
  }

  let train ~cards ~n_labels xs ys =
    let n = Array.length xs in
    if n = 0 then invalid_arg "Naive_bayes.train: empty training set";
    let d = Array.length cards in
    let label_counts = Array.make n_labels 0 in
    let counts = Array.init d (fun j -> Array.make_matrix cards.(j) n_labels 0) in
    for i = 0 to n - 1 do
      let y = ys.(i) in
      if y >= 0 then begin
        label_counts.(y) <- label_counts.(y) + 1;
        Array.iteri (fun j v -> counts.(j).(v).(y) <- counts.(j).(v).(y) + 1) xs.(i)
      end
    done;
    let total = Array.fold_left ( + ) 0 label_counts in
    let log_prior =
      Array.map
        (fun c ->
          log ((float_of_int c +. 1.0) /. (float_of_int total +. float_of_int n_labels)))
        label_counts
    in
    let log_likelihood =
      Array.init d (fun j ->
          Array.init cards.(j) (fun v ->
              Array.init n_labels (fun y ->
                  log
                    ((float_of_int counts.(j).(v).(y) +. 1.0)
                    /. (float_of_int label_counts.(y) +. float_of_int cards.(j))))))
    in
    { n_labels; cards; log_prior; log_likelihood }

  let log_scores t x =
    Array.init t.n_labels (fun y ->
        let s = ref t.log_prior.(y) in
        Array.iteri
          (fun j v ->
            if v >= 0 && v < t.cards.(j) then s := !s +. t.log_likelihood.(j).(v).(y))
          x;
        !s)

  let predict t x =
    let scores = log_scores t x in
    let best = ref 0 in
    Array.iteri (fun y s -> if s > scores.(!best) then best := y) scores;
    !best
end

module Decision_tree = struct
  type node =
    | Leaf of int
    | Split of { feature : int; value : int; if_eq : node; if_ne : node }

  type t = { root : node }

  let gini hist total =
    if total = 0 then 0.0
    else begin
      let t = float_of_int total in
      let s = ref 0.0 in
      Array.iter
        (fun c ->
          let p = float_of_int c /. t in
          s := !s +. (p *. p))
        hist;
      1.0 -. !s
    end

  let majority hist =
    let best = ref 0 in
    Array.iteri (fun y c -> if c > hist.(!best) then best := y) hist;
    !best

  let histogram n_labels ys rows =
    let hist = Array.make n_labels 0 in
    List.iter (fun i -> if ys.(i) >= 0 then hist.(ys.(i)) <- hist.(ys.(i)) + 1) rows;
    hist

  let train ?(params = Mlmodel.Decision_tree.default_params) ~cards ~n_labels xs ys =
    let { Mlmodel.Decision_tree.max_depth; min_leaf } = params in
    let n = Array.length xs in
    if n = 0 then invalid_arg "Decision_tree.train: empty training set";
    let d = Array.length cards in
    let rec grow rows depth =
      let hist = histogram n_labels ys rows in
      let total = List.length rows in
      let label = majority hist in
      let impurity = gini hist total in
      if depth >= max_depth || total <= min_leaf || impurity = 0.0 then Leaf label
      else begin
        let best = ref None in
        for j = 0 to d - 1 do
          let value_hist = Array.make cards.(j) 0 in
          List.iter
            (fun i ->
              let v = xs.(i).(j) in
              if v >= 0 && v < cards.(j) then value_hist.(v) <- value_hist.(v) + 1)
            rows;
          for v = 0 to cards.(j) - 1 do
            if value_hist.(v) > 0 && value_hist.(v) < total then begin
              let eq_hist = Array.make n_labels 0 in
              let ne_hist = Array.make n_labels 0 in
              List.iter
                (fun i ->
                  if ys.(i) >= 0 then begin
                    if xs.(i).(j) = v then eq_hist.(ys.(i)) <- eq_hist.(ys.(i)) + 1
                    else ne_hist.(ys.(i)) <- ne_hist.(ys.(i)) + 1
                  end)
                rows;
              let n_eq = Array.fold_left ( + ) 0 eq_hist in
              let n_ne = Array.fold_left ( + ) 0 ne_hist in
              if n_eq >= min_leaf / 2 && n_ne >= min_leaf / 2 then begin
                let weighted =
                  (float_of_int n_eq *. gini eq_hist n_eq
                  +. float_of_int n_ne *. gini ne_hist n_ne)
                  /. float_of_int (n_eq + n_ne)
                in
                let gain = impurity -. weighted in
                match !best with
                | Some (g, _, _) when g >= gain -> ()
                | _ -> if gain > 1e-9 then best := Some (gain, j, v)
              end
            end
          done
        done;
        match !best with
        | None -> Leaf label
        | Some (_, j, v) ->
          let eq_rows, ne_rows = List.partition (fun i -> xs.(i).(j) = v) rows in
          Split
            { feature = j; value = v; if_eq = grow eq_rows (depth + 1);
              if_ne = grow ne_rows (depth + 1) }
      end
    in
    { root = grow (List.init n Fun.id) 0 }

  let rec eval node x =
    match node with
    | Leaf y -> y
    | Split { feature; value; if_eq; if_ne } ->
      if x.(feature) = value then eval if_eq x else eval if_ne x

  let predict t x = eval t.root x

  let rec depth_of = function
    | Leaf _ -> 0
    | Split { if_eq; if_ne; _ } -> 1 + max (depth_of if_eq) (depth_of if_ne)

  let depth t = depth_of t.root

  let rec size_of = function
    | Leaf _ -> 1
    | Split { if_eq; if_ne; _ } -> 1 + size_of if_eq + size_of if_ne

  let size t = size_of t.root
end

module Ensemble = struct
  type t = {
    encoder : Features.t;
    bayes : Naive_bayes.t;
    tree : Decision_tree.t;
    deep_tree : Decision_tree.t;
  }

  let train ?(tree_params = Mlmodel.Decision_tree.default_params) frame ~label =
    let encoder = Features.fit frame ~label in
    let xs, ys = encode encoder frame ~label in
    let cards = Features.cards encoder in
    let n_labels = Features.n_labels encoder in
    let deep = { tree_params with max_depth = tree_params.max_depth + 4 } in
    {
      encoder;
      bayes = Naive_bayes.train ~cards ~n_labels xs ys;
      tree = Decision_tree.train ~params:tree_params ~cards ~n_labels xs ys;
      deep_tree = Decision_tree.train ~params:deep ~cards ~n_labels xs ys;
    }

  (* three votes; a label needs two of them, else naive Bayes decides *)
  let predict_code t x =
    let votes =
      [ Naive_bayes.predict t.bayes x; Decision_tree.predict t.tree x;
        Decision_tree.predict t.deep_tree x ]
    in
    let hist = Array.make (Features.n_labels t.encoder) 0 in
    List.iter (fun y -> hist.(y) <- hist.(y) + 1) votes;
    let best = ref 0 in
    Array.iteri (fun y c -> if c > hist.(!best) then best := y) hist;
    if hist.(!best) > 1 then !best else Naive_bayes.predict t.bayes x

  let predict_row t frame row =
    Features.label_value t.encoder (predict_code t (encode_row t.encoder frame row))

  let predict_frame t frame = Array.init (Frame.nrows frame) (predict_row t frame)
end
