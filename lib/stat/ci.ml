(* Conditional-independence testing, spec-record API.

   One [spec] record carries everything a test needs besides the data
   itself: the statistic kind, the significance level, the stratum cap,
   the effect-size floor and the variable cardinalities. Call sites
   build a spec once with {!make} and reuse it across tests of the same
   pair.

   The test itself is the classical stratified chi-square (or G) test:
   compute the two-way statistic inside every stratum of the
   conditioning set, sum statistics and degrees of freedom, and compare
   against the chi-square survival function. Degrees of freedom inside a
   stratum only count rows/columns with non-zero marginals, which keeps
   sparse tables honest. Counting the tables ([Contingency.conditional]
   over int codes, [Bits.conditional] over packed bits) is separate from
   judging them ([evaluate]), so both count sources share one statistic
   path. *)

type statistic = Chi_square | G_test

type result = { stat : float; df : int; p_value : float; independent : bool }

type spec = {
  kind : statistic;     (* test statistic *)
  alpha : float;        (* significance level *)
  max_strata : int;     (* conditioning-stratum cap (curse of dimensionality) *)
  min_effect : float;   (* Cramér's-V floor (large-sample guard) *)
  kx : int;             (* cardinality of the first variable *)
  ky : int;             (* cardinality of the second variable *)
}

let make ?(kind = Chi_square) ~max_strata ~min_effect ~alpha ~kx ~ky () =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Ci.make: alpha must be in (0, 1)";
  if max_strata < 1 then invalid_arg "Ci.make: max_strata must be >= 1";
  if min_effect < 0.0 then invalid_arg "Ci.make: min_effect must be >= 0";
  if kx < 1 || ky < 1 then invalid_arg "Ci.make: cardinalities must be >= 1";
  { kind; alpha; max_strata; min_effect; kx; ky }

(* Statistic and df of one table; tables with fewer than two non-empty rows
   or columns contribute nothing. *)
let table_stat kind (t : Contingency.table) =
  let rm = Contingency.row_marginals t in
  let cm = Contingency.col_marginals t in
  let nz_rows = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 rm in
  let nz_cols = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 cm in
  if nz_rows < 2 || nz_cols < 2 || t.total = 0 then (0.0, 0)
  else begin
    let n = float_of_int t.total in
    let stat = ref 0.0 in
    for x = 0 to t.kx - 1 do
      if rm.(x) > 0 then
        for y = 0 to t.ky - 1 do
          if cm.(y) > 0 then begin
            let expected = float_of_int rm.(x) *. float_of_int cm.(y) /. n in
            let observed = float_of_int (Contingency.get t x y) in
            match kind with
            | Chi_square ->
              let d = observed -. expected in
              stat := !stat +. (d *. d /. expected)
            | G_test ->
              if observed > 0.0 then
                stat := !stat +. (2.0 *. observed *. log (observed /. expected))
          end
        done
    done;
    (!stat, (nz_rows - 1) * (nz_cols - 1))
  end

(* Cramér's-V-style effect size from a summed statistic. *)
let effect_size ~kx ~ky ~n stat =
  let k = min kx ky in
  if n <= 0 || k < 2 then 0.0
  else sqrt (stat /. (float_of_int n *. float_of_int (k - 1)))

let independent_result = { stat = 0.0; df = 0; p_value = 1.0; independent = true }

(* [ci.tests] counts every test; [ci.conservative] counts the
   no-usable-signal returns (stratum cap hit or all-degenerate tables)
   where independence is declared without evidence. *)
let conservative () =
  Obs.Metric.count "ci.conservative";
  independent_result

(* Judge stratified tables: sum per-stratum statistics and dfs. When
   there are no tables (the stratum space exceeded [max_strata]), or no
   stratum has enough data, we conservatively declare independence: with
   no usable signal, the PC algorithm should not keep an edge. This
   mirrors the "identity sampler becomes unusable on high-cardinality
   data" failure mode of the paper's ablation (Table 8). *)
let evaluate spec tables =
  Obs.Metric.count "ci.tests";
  match tables with
  | None -> conservative ()
  | Some tables ->
    let stat, df, n =
      List.fold_left
        (fun (s, d, n) t ->
          let s', d' = table_stat spec.kind t in
          (s +. s', d + d', if d' > 0 then n + t.Contingency.total else n))
        (0.0, 0, 0) tables
    in
    if df = 0 then conservative ()
    else begin
      let p_value = Special.chi2_sf ~df stat in
      let effect = effect_size ~kx:spec.kx ~ky:spec.ky ~n stat in
      {
        stat;
        df;
        p_value;
        independent = p_value > spec.alpha || effect < spec.min_effect;
      }
    end

let test spec xs ys cond_codes cond_cards =
  evaluate spec
    (Contingency.conditional ~kx:spec.kx ~ky:spec.ky ~max_strata:spec.max_strata
       xs ys cond_codes cond_cards)
