(* Deterministic shuffling and train/test splitting.

   The evaluation protocol (paper §8.2, after [10]) synthesizes constraints
   on a clean training split and detects errors on a corrupted test split,
   so splits must be reproducible across the whole benchmark harness. *)

let permutation ~seed n =
  let st = Random.State.make [| seed; 0x5eed |] in
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let shuffle ~seed df = Frame.take df (permutation ~seed (Frame.nrows df))

(* [train_test ~seed ~train_fraction df] returns [(train, test)]. The frame
   is shuffled first; fractions are clamped to keep at least one row on each
   side when possible. *)
let train_test ~seed ~train_fraction df =
  let n = Frame.nrows df in
  let perm = permutation ~seed n in
  let k =
    let raw = int_of_float (Float.of_int n *. train_fraction) in
    if n <= 1 then raw else max 1 (min (n - 1) raw)
  in
  let train_idx = Column.sub_codes perm 0 k in
  let test_idx = Column.sub_codes perm k (n - k) in
  (Frame.take df train_idx, Frame.take df test_idx)

(* Random sample of [k] distinct row indices. *)
let sample_indices ~seed n k =
  let perm = permutation ~seed n in
  Array.sub perm 0 (min k n)
