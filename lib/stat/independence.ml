(* Independence tests on categorical data.

   The stratified conditional test lives in the spec-record API of
   {!Ci}; this module keeps the unconditional two-way helpers. *)

type statistic = Ci.statistic = Chi_square | G_test

type result = Ci.result = {
  stat : float;
  df : int;
  p_value : float;
  independent : bool;
}

let table_stat = Ci.table_stat
let effect_size = Ci.effect_size

(* Unconditional test. *)
let test_two_way ?(kind = Chi_square) ~alpha table =
  let stat, df = table_stat kind table in
  if df = 0 then { stat = 0.0; df = 0; p_value = 1.0; independent = true }
  else begin
    let p_value = Special.chi2_sf ~df stat in
    { stat; df; p_value; independent = p_value > alpha }
  end

(* Cramér's V effect size of a two-way table, in [0, 1]. *)
let cramers_v table =
  let stat, _ = table_stat Chi_square table in
  let k = min table.Contingency.kx table.Contingency.ky in
  if table.Contingency.total = 0 || k < 2 then 0.0
  else sqrt (stat /. (float_of_int table.Contingency.total *. float_of_int (k - 1)))

(* Mutual information (nats) of a two-way table. *)
let mutual_information (t : Contingency.table) =
  if t.total = 0 then 0.0
  else begin
    let n = float_of_int t.total in
    let rm = Contingency.row_marginals t in
    let cm = Contingency.col_marginals t in
    let mi = ref 0.0 in
    for x = 0 to t.kx - 1 do
      for y = 0 to t.ky - 1 do
        let o = Contingency.get t x y in
        if o > 0 then begin
          let pxy = float_of_int o /. n in
          let px = float_of_int rm.(x) /. n in
          let py = float_of_int cm.(y) /. n in
          mi := !mi +. (pxy *. log (pxy /. (px *. py)))
        end
      done
    done;
    !mi
  end
