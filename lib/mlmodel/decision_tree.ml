(* CART-style decision tree on categorical features.

   Splits are equality tests "feature j = value v" chosen by Gini
   impurity reduction; growth stops at [max_depth], [min_leaf] or purity.
   Equality splits keep the tree honest on dictionary-coded data and make
   it sensitive to single-attribute corruptions — exactly the sensitivity
   the guardrail experiments measure.

   Training is column-major. A node holds its rows as an index array
   (partitioned in order on a split); per feature, one pass over them
   fills a (value × label) count table, and every candidate value's
   "= v" label histogram is read off that table, its "<> v" histogram
   being the node's histogram minus it: O(rows + card·labels) per
   feature instead of one pass over the rows per candidate value.

   Depth enters growth only through the stop rule, so the tree grown to
   depth d cut at depth c < d is the tree grown to depth c: each [Split]
   keeps its node's majority label, and prediction takes a depth cap. *)

type node =
  | Leaf of int                                   (* label code *)
  | Split of { feature : int; value : int; label : int; if_eq : node; if_ne : node }

type t = { root : node }

type params = { max_depth : int; min_leaf : int }

let default_params = { max_depth = 8; min_leaf = 4 }

(* Gini impurity of the histogram [counts.(off) .. counts.(off + l - 1)]
   over [total] rows. *)
let gini counts off l total =
  if total = 0 then 0.0
  else begin
    let t = float_of_int total in
    let s = ref 0.0 in
    for y = off to off + l - 1 do
      let p = float_of_int counts.(y) /. t in
      s := !s +. (p *. p)
    done;
    1.0 -. !s
  end

let majority hist =
  let best = ref 0 in
  Array.iteri (fun y c -> if c > hist.(!best) then best := y) hist;
  !best

(* [rows] split in order into those satisfying [p] and the rest. *)
let partition p rows =
  let n_yes = Array.fold_left (fun c i -> if p i then c + 1 else c) 0 rows in
  let yes = Array.make n_yes 0 and no = Array.make (Array.length rows - n_yes) 0 in
  let a = ref 0 and b = ref 0 in
  Array.iter
    (fun i ->
      if p i then (yes.(!a) <- i; incr a) else (no.(!b) <- i; incr b))
    rows;
  (yes, no)

let train ?(params = default_params) ~cards ~n_labels xs ys =
  if Array.length ys = 0 then invalid_arg "Decision_tree.train: empty training set";
  let l = n_labels in
  let max_card = Array.fold_left max 0 cards in
  (* per-node scratch, all zero between uses *)
  let table = Array.make (max_card * l) 0 in   (* value * l + label -> labelled rows *)
  let present = Array.make max_card 0 in       (* value -> rows, unlabelled too *)
  let ne = Array.make l 0 in
  let half = params.min_leaf / 2 in
  let rec grow rows depth =
    let total = Array.length rows in
    let hist = Array.make l 0 in
    Array.iter (fun i -> let y = ys.(i) in if y >= 0 then hist.(y) <- hist.(y) + 1) rows;
    let label = majority hist in
    let impurity = gini hist 0 l total in
    if depth >= params.max_depth || total <= params.min_leaf || impurity = 0.0
    then Leaf label
    else begin
      (* best equality split: features, then values, ascending; the
         first of equal gains wins *)
      let best_gain = ref neg_infinity and best_j = ref (-1) and best_v = ref 0 in
      Array.iteri
        (fun j card ->
          let x = xs.(j) in
          Array.iter
            (fun i ->
              let v = x.(i) in
              if v >= 0 && v < card then begin
                present.(v) <- present.(v) + 1;
                let y = ys.(i) in
                if y >= 0 then table.((v * l) + y) <- table.((v * l) + y) + 1
              end)
            rows;
          for v = 0 to card - 1 do
            if present.(v) > 0 then begin
              let o = v * l in
              if present.(v) < total then begin
                let n_eq = ref 0 and n_ne = ref 0 in
                for y = 0 to l - 1 do
                  n_eq := !n_eq + table.(o + y);
                  ne.(y) <- hist.(y) - table.(o + y);
                  n_ne := !n_ne + ne.(y)
                done;
                let n_eq = !n_eq and n_ne = !n_ne in
                if n_eq >= half && n_ne >= half then begin
                  let weighted =
                    (float_of_int n_eq *. gini table o l n_eq
                    +. float_of_int n_ne *. gini ne 0 l n_ne)
                    /. float_of_int (n_eq + n_ne)
                  in
                  let gain = impurity -. weighted in
                  if gain > 1e-9 && gain > !best_gain then begin
                    best_gain := gain;
                    best_j := j;
                    best_v := v
                  end
                end
              end;
              present.(v) <- 0;
              Array.fill table o l 0
            end
          done)
        cards;
      if !best_j < 0 then Leaf label
      else begin
        let x = xs.(!best_j) and v = !best_v in
        let eq_rows, ne_rows = partition (fun i -> x.(i) = v) rows in
        Split
          {
            feature = !best_j;
            value = v;
            label;
            if_eq = grow eq_rows (depth + 1);
            if_ne = grow ne_rows (depth + 1);
          }
      end
    end
  in
  { root = grow (Array.init (Array.length ys) Fun.id) 0 }

(* The node row [i]'s path reaches at depth [cap], or the leaf that
   ends it sooner. *)
let rec descend cap node (cols : Features.column array) i =
  match node with
  | Split { feature; value; if_eq; if_ne; _ } when cap > 0 ->
    descend (cap - 1)
      (if Features.get cols.(feature) i = value then if_eq else if_ne)
      cols i
  | Leaf _ | Split _ -> node

let label_of = function Leaf y -> y | Split { label; _ } -> label

(* One walk per row: down to depth [shallow], whose node's label is the
   cut tree's, then on from that node to the leaf. *)
let predict_both t ~shallow cols rows =
  let m = Array.length rows in
  let cut = Array.make m 0 and full = Array.make m 0 in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get rows k in
    let node = descend shallow t.root cols i in
    cut.(k) <- label_of node;
    full.(k) <- label_of (descend max_int node cols i)
  done;
  (cut, full)

let rec depth_of cap = function
  | Split { if_eq; if_ne; _ } when cap > 0 ->
    1 + max (depth_of (cap - 1) if_eq) (depth_of (cap - 1) if_ne)
  | Leaf _ | Split _ -> 0

let depth ?(cap = max_int) t = depth_of cap t.root

let rec size_of cap = function
  | Split { if_eq; if_ne; _ } when cap > 0 ->
    1 + size_of (cap - 1) if_eq + size_of (cap - 1) if_ne
  | Leaf _ | Split _ -> 1

let size ?(cap = max_int) t = size_of cap t.root
