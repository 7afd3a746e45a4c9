(* Unit and property tests for the statistics substrate. *)

module Rng = Stat.Rng
module Special = Stat.Special
module Linalg = Stat.Linalg
module Contingency = Stat.Contingency
module Independence = Stat.Independence
module Ci = Stat.Ci
module Metrics = Stat.Metrics
module Descriptive = Stat.Descriptive

let close ?(eps = 1e-6) = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_int_bounds () =
  let r = Rng.create 99 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_float_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniformity () =
  let r = Rng.create 1234 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Rng.int r 4 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true
        (abs (c - (n / 4)) < n / 20))
    counts

let test_rng_categorical () =
  let r = Rng.create 77 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Rng.categorical r [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "weighted sampling" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  Alcotest.(check bool) "last weight ~70%" true
    (abs (counts.(2) - 21000) < 1500)

let test_rng_categorical_zero () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Rng.categorical: weights sum to zero") (fun () ->
      ignore (Rng.categorical r [| 0.0; 0.0 |]))

(* ------------------------------------------------------------------ *)
(* Special functions *)

let test_log_gamma () =
  (* ln Γ(n) = ln (n-1)! *)
  close ~eps:1e-9 "Γ(1)" 0.0 (Special.log_gamma 1.0);
  close ~eps:1e-9 "Γ(2)" 0.0 (Special.log_gamma 2.0);
  close ~eps:1e-8 "Γ(5) = 24" (log 24.0) (Special.log_gamma 5.0);
  close ~eps:1e-8 "Γ(0.5) = sqrt(pi)" (log (sqrt Float.pi)) (Special.log_gamma 0.5)

let test_chi2_sf () =
  (* chi-square with 1 df: P(X >= 3.841) ~ 0.05 *)
  close ~eps:1e-3 "df=1 at 3.841" 0.05 (Special.chi2_sf ~df:1 3.841);
  close ~eps:1e-3 "df=2 at 5.991" 0.05 (Special.chi2_sf ~df:2 5.991);
  close ~eps:1e-6 "at 0" 1.0 (Special.chi2_sf ~df:3 0.0);
  Alcotest.(check bool) "monotone decreasing" true
    (Special.chi2_sf ~df:4 1.0 > Special.chi2_sf ~df:4 10.0)

let test_gamma_p_q () =
  close ~eps:1e-9 "P + Q = 1" 1.0 (Special.gamma_p 2.5 1.7 +. Special.gamma_q 2.5 1.7);
  (* P(1, x) = 1 - exp(-x) *)
  close ~eps:1e-8 "exponential special case" (1.0 -. exp (-2.0)) (Special.gamma_p 1.0 2.0)

let test_erf () =
  close ~eps:1e-6 "erf 0" 0.0 (Special.erf 0.0);
  close ~eps:1e-4 "erf 1" 0.8427 (Special.erf 1.0);
  close ~eps:1e-4 "erf -1" (-0.8427) (Special.erf (-1.0))

(* ------------------------------------------------------------------ *)
(* Linalg *)

let test_matmul () =
  let a = Linalg.init 2 2 (fun i j -> float_of_int ((i * 2) + j + 1)) in
  let b = Linalg.identity 2 in
  let c = Linalg.matmul a b in
  for i = 0 to 1 do
    for j = 0 to 1 do
      close "identity product" (Linalg.get a i j) (Linalg.get c i j)
    done
  done

let test_solve () =
  (* [[2,1],[1,3]] x = [5, 10] -> x = [1, 3] *)
  let a = Linalg.init 2 2 (fun i j ->
      match i, j with 0, 0 -> 2.0 | 0, 1 -> 1.0 | 1, 0 -> 1.0 | _ -> 3.0)
  in
  let b = Linalg.init 2 1 (fun i _ -> if i = 0 then 5.0 else 10.0) in
  let x = Linalg.solve a b in
  close ~eps:1e-9 "x0" 1.0 (Linalg.get x 0 0);
  close ~eps:1e-9 "x1" 3.0 (Linalg.get x 1 0)

let test_inverse () =
  let a = Linalg.init 2 2 (fun i j ->
      match i, j with 0, 0 -> 4.0 | 0, 1 -> 7.0 | 1, 0 -> 2.0 | _ -> 6.0)
  in
  let ai = Linalg.inverse a in
  let p = Linalg.matmul a ai in
  close ~eps:1e-9 "diag 1" 1.0 (Linalg.get p 0 0);
  close ~eps:1e-9 "off-diag 0" 0.0 (Linalg.get p 0 1)

let test_singular () =
  let a = Linalg.init 2 2 (fun _ _ -> 1.0) in
  Alcotest.(check bool) "singular raises" true
    (try
       ignore (Linalg.inverse a);
       false
     with Linalg.Singular -> true)

let test_ridge_recovers_coefficients () =
  (* y = 2 x0 - 1.5 x1, exactly *)
  let rng = Rng.create 3 in
  let n = 200 in
  let x = Linalg.init n 2 (fun _ _ -> Rng.float rng) in
  let y = Array.init n (fun i -> (2.0 *. Linalg.get x i 0) -. (1.5 *. Linalg.get x i 1)) in
  let w = Linalg.ridge ~lambda:1e-9 x y in
  close ~eps:1e-4 "w0" 2.0 w.(0);
  close ~eps:1e-4 "w1" (-1.5) w.(1)

let test_covariance () =
  (* perfectly correlated columns *)
  let n = 50 in
  let x = Linalg.init n 2 (fun i j -> float_of_int i *. if j = 0 then 1.0 else 2.0) in
  let c = Linalg.covariance x in
  close ~eps:1e-6 "cov12 = 2 var1" (2.0 *. Linalg.get c 0 0) (Linalg.get c 0 1)

(* ------------------------------------------------------------------ *)
(* Contingency + Independence *)

let test_two_way_counts () =
  let xs = [| 0; 0; 1; 1; 1 |] and ys = [| 0; 1; 0; 0; 1 |] in
  let t = Contingency.two_way ~kx:2 ~ky:2 xs ys in
  Alcotest.(check int) "cell 00" 1 (Contingency.get t 0 0);
  Alcotest.(check int) "cell 10" 2 (Contingency.get t 1 0);
  Alcotest.(check (array int)) "row marginals" [| 2; 3 |] (Contingency.row_marginals t);
  Alcotest.(check (array int)) "col marginals" [| 3; 2 |] (Contingency.col_marginals t)

let test_independence_detects_dependence () =
  (* y = x deterministically *)
  let n = 500 in
  let xs = Array.init n (fun i -> i mod 3) in
  let ys = Array.copy xs in
  let t = Contingency.two_way ~kx:3 ~ky:3 xs ys in
  let r = Independence.test_two_way ~alpha:0.01 t in
  Alcotest.(check bool) "dependent" false r.Independence.independent;
  Alcotest.(check bool) "tiny p" true (r.Independence.p_value < 1e-10)

let test_independence_detects_independence () =
  let rng = Rng.create 12 in
  let n = 2000 in
  let xs = Array.init n (fun _ -> Rng.int rng 3) in
  let ys = Array.init n (fun _ -> Rng.int rng 4) in
  let t = Contingency.two_way ~kx:3 ~ky:4 xs ys in
  let r = Independence.test_two_way ~alpha:0.001 t in
  Alcotest.(check bool) "independent" true r.Independence.independent

let test_conditional_independence () =
  (* x -> z -> y: x and y dependent, but independent given z *)
  let rng = Rng.create 4 in
  let n = 4000 in
  let xs = Array.init n (fun _ -> Rng.int rng 2) in
  let zs = Array.map (fun x -> x) xs in
  (* add noise to z *)
  Array.iteri (fun i z -> if Rng.float rng < 0.2 then zs.(i) <- 1 - z) zs;
  let ys = Array.map (fun z -> z) zs in
  Array.iteri (fun i y -> if Rng.float rng < 0.2 then ys.(i) <- 1 - y) ys;
  (* marginal dependence *)
  let t = Contingency.two_way ~kx:2 ~ky:2 xs ys in
  let marginal = Independence.test_two_way ~alpha:0.01 t in
  Alcotest.(check bool) "marginally dependent" false marginal.Independence.independent;
  (* conditional independence given z *)
  let r = Ci.test (Ci.make ~max_strata:4096 ~min_effect:0.0 ~alpha:0.01 ~kx:2 ~ky:2 ())
      xs ys [ zs ] [ 2 ]
  in
  Alcotest.(check bool) "conditionally independent" true r.Independence.independent

let test_ci_test_max_strata () =
  (* conditioning space too large -> conservative independence *)
  let n = 100 in
  let xs = Array.init n (fun i -> i mod 2) in
  let ys = Array.copy xs in
  let big = Array.init n (fun i -> i) in
  let r =
    Ci.test
      (Ci.make ~max_strata:10 ~min_effect:0.0 ~alpha:0.01 ~kx:2 ~ky:2 ())
      xs ys [ big ] [ n ]
  in
  Alcotest.(check bool) "underpowered -> independent" true r.Independence.independent

let test_ci_make_validates () =
  let raises f =
    match f () with
    | (_ : Ci.spec) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  let make ?(max_strata = 4096) ?(min_effect = 0.0) ~alpha ~kx () =
    Ci.make ~max_strata ~min_effect ~alpha ~kx ~ky:2 ()
  in
  raises (fun () -> make ~alpha:0.0 ~kx:2 ());
  raises (fun () -> make ~alpha:1.5 ~kx:2 ());
  raises (fun () -> make ~alpha:0.01 ~kx:0 ());
  raises (fun () -> make ~alpha:0.01 ~max_strata:0 ~kx:2 ());
  raises (fun () -> make ~alpha:0.01 ~min_effect:(-0.1) ~kx:2 ())

(* Ci.test is a pure function of the spec and the data: the same call
   must reproduce the same statistic bit-for-bit (the synthesis memo
   cache depends on this) *)
let test_ci_test_deterministic () =
  let rng = Rng.create 11 in
  let n = 2000 in
  let xs = Array.init n (fun _ -> Rng.int rng 2) in
  let ys = Array.init n (fun _ -> Rng.int rng 2) in
  let zs = Array.init n (fun _ -> Rng.int rng 3) in
  let spec = Ci.make ~max_strata:4096 ~min_effect:0.0 ~alpha:0.05 ~kx:2 ~ky:2 () in
  let a = Ci.test spec xs ys [ zs ] [ 3 ] in
  let b = Ci.test spec xs ys [ zs ] [ 3 ] in
  Alcotest.(check (float 0.0)) "same statistic" a.Ci.stat b.Ci.stat;
  Alcotest.(check int) "same df" a.Ci.df b.Ci.df;
  Alcotest.(check bool) "same verdict" a.Ci.independent b.Ci.independent

let test_mutual_information () =
  let xs = [| 0; 0; 1; 1 |] in
  let t_dep = Contingency.two_way ~kx:2 ~ky:2 xs xs in
  close ~eps:1e-9 "MI of identical = ln 2" (log 2.0)
    (Independence.mutual_information t_dep);
  let t_ind = Contingency.two_way ~kx:2 ~ky:2 xs [| 0; 1; 0; 1 |] in
  close ~eps:1e-9 "MI of independent = 0" 0.0 (Independence.mutual_information t_ind)

let test_cramers_v () =
  let xs = [| 0; 0; 1; 1; 2; 2 |] in
  let t = Contingency.two_way ~kx:3 ~ky:3 xs xs in
  close ~eps:1e-9 "perfect association" 1.0 (Independence.cramers_v t)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_confusion_and_scores () =
  let predicted = [| true; true; false; false; true |] in
  let actual = [| true; false; false; true; true |] in
  let c = Metrics.confusion ~predicted ~actual in
  Alcotest.(check int) "tp" 2 c.Metrics.tp;
  Alcotest.(check int) "fp" 1 c.Metrics.fp;
  Alcotest.(check int) "fn" 1 c.Metrics.fn;
  Alcotest.(check int) "tn" 1 c.Metrics.tn;
  close ~eps:1e-9 "precision" (2.0 /. 3.0) (Metrics.precision c);
  close ~eps:1e-9 "recall" (2.0 /. 3.0) (Metrics.recall c);
  close ~eps:1e-9 "f1" (2.0 /. 3.0) (Metrics.f1 c)

let test_mcc_perfect () =
  let a = [| true; false; true; false |] in
  let c = Metrics.confusion ~predicted:a ~actual:a in
  close ~eps:1e-9 "perfect MCC" 1.0 (Metrics.mcc c);
  let inv = Array.map not a in
  let c' = Metrics.confusion ~predicted:inv ~actual:a in
  close ~eps:1e-9 "anti MCC" (-1.0) (Metrics.mcc c')

let test_mcc_degenerate_nan () =
  let c = Metrics.confusion ~predicted:[| false; false |] ~actual:[| true; false |] in
  Alcotest.(check bool) "NaN on empty marginal" true (Float.is_nan (Metrics.mcc c))

let test_ranks_ties () =
  let r = Metrics.ranks [| 10.0; 20.0; 20.0; 30.0 |] in
  Alcotest.(check (array (float 1e-9))) "average ranks" [| 1.0; 2.5; 2.5; 4.0 |] r

let test_spearman () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let ys = [| 2.0; 4.0; 6.0; 8.0; 10.0 |] in
  let rho, _ = Metrics.spearman xs ys in
  close ~eps:1e-9 "monotone -> 1" 1.0 rho;
  let rho_inv, _ = Metrics.spearman xs (Array.map (fun y -> -.y) ys) in
  close ~eps:1e-9 "anti-monotone -> -1" (-1.0) rho_inv

(* ------------------------------------------------------------------ *)
(* Descriptive *)

let test_descriptive () =
  close ~eps:1e-9 "mean" 2.0 (Descriptive.mean [| 1.0; 2.0; 3.0 |]);
  close ~eps:1e-9 "variance" 1.0 (Descriptive.variance [| 1.0; 2.0; 3.0 |]);
  let normalized = Descriptive.normalize [| 2.0; 4.0; 6.0 |] in
  Alcotest.(check (array (float 1e-9))) "normalize" [| 0.0; 0.5; 1.0 |] normalized;
  Alcotest.(check (array (float 1e-9))) "constant normalizes to zero" [| 0.0; 0.0 |]
    (Descriptive.normalize [| 5.0; 5.0 |]);
  close ~eps:1e-9 "l1 distance" 3.0 (Descriptive.l1_distance [| 1.0; 2.0 |] [| 3.0; 1.0 |]);
  close ~eps:1e-9 "relative error" 0.5
    (Descriptive.relative_error ~reference:[| 4.0; 2.0 |] ~observed:[| 4.0; 5.0 |])

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_chi2_sf_range =
  QCheck.Test.make ~name:"chi2_sf in [0,1]" ~count:200
    QCheck.(pair (int_range 1 20) (float_bound_inclusive 50.0))
    (fun (df, x) ->
      let p = Special.chi2_sf ~df x in
      p >= 0.0 && p <= 1.0)

let qcheck_mcc_range =
  QCheck.Test.make ~name:"MCC in [-1,1] or NaN" ~count:200
    QCheck.(list_of_size Gen.(2 -- 40) (pair bool bool))
    (fun pairs ->
      let predicted = Array.of_list (List.map fst pairs) in
      let actual = Array.of_list (List.map snd pairs) in
      let m = Metrics.mcc (Metrics.confusion ~predicted ~actual) in
      Float.is_nan m || (m >= -1.0 && m <= 1.0))

let qcheck_normalize_range =
  QCheck.Test.make ~name:"normalize lands in [0,1]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (float_bound_inclusive 1000.0))
    (fun xs ->
      let out = Descriptive.normalize (Array.of_list xs) in
      Array.for_all (fun v -> v >= 0.0 && v <= 1.0) out)

let qcheck_solve_inverts =
  QCheck.Test.make ~name:"solve(A, A*x) = x for diagonally dominant A" ~count:50
    QCheck.(list_of_size (Gen.return 9) (float_range (-1.0) 1.0))
    (fun cells ->
      let a =
        Linalg.init 3 3 (fun i j ->
            let v = List.nth cells ((i * 3) + j) in
            if i = j then v +. 5.0 else v)
      in
      let x = [| 1.0; -2.0; 0.5 |] in
      let b = Linalg.matvec a x in
      let bm = Linalg.init 3 1 (fun i _ -> b.(i)) in
      let solved = Linalg.solve a bm in
      Array.for_all
        (fun i -> Float.abs (Linalg.get solved i 0 -. x.(i)) < 1e-6)
        [| 0; 1; 2 |])

let () =
  Alcotest.run "stat"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "categorical weights" `Quick test_rng_categorical;
          Alcotest.test_case "categorical zero weights" `Quick test_rng_categorical_zero;
        ] );
      ( "special",
        [
          Alcotest.test_case "log_gamma" `Quick test_log_gamma;
          Alcotest.test_case "chi2 survival" `Quick test_chi2_sf;
          Alcotest.test_case "incomplete gamma" `Quick test_gamma_p_q;
          Alcotest.test_case "erf" `Quick test_erf;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "matmul identity" `Quick test_matmul;
          Alcotest.test_case "solve" `Quick test_solve;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "singular detection" `Quick test_singular;
          Alcotest.test_case "ridge regression" `Quick test_ridge_recovers_coefficients;
          Alcotest.test_case "covariance" `Quick test_covariance;
        ] );
      ( "independence",
        [
          Alcotest.test_case "two-way counts" `Quick test_two_way_counts;
          Alcotest.test_case "detects dependence" `Quick test_independence_detects_dependence;
          Alcotest.test_case "detects independence" `Quick test_independence_detects_independence;
          Alcotest.test_case "conditional independence" `Quick test_conditional_independence;
          Alcotest.test_case "stratum cap conservative" `Quick test_ci_test_max_strata;
          Alcotest.test_case "Ci.make validates" `Quick test_ci_make_validates;
          Alcotest.test_case "ci test deterministic" `Quick test_ci_test_deterministic;
          Alcotest.test_case "mutual information" `Quick test_mutual_information;
          Alcotest.test_case "cramers v" `Quick test_cramers_v;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "confusion and F1" `Quick test_confusion_and_scores;
          Alcotest.test_case "MCC extremes" `Quick test_mcc_perfect;
          Alcotest.test_case "MCC degenerate" `Quick test_mcc_degenerate_nan;
          Alcotest.test_case "ranks with ties" `Quick test_ranks_ties;
          Alcotest.test_case "spearman" `Quick test_spearman;
        ] );
      ("descriptive", [ Alcotest.test_case "all" `Quick test_descriptive ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_chi2_sf_range; qcheck_mcc_range; qcheck_normalize_range;
            qcheck_solve_inverts ] );
    ]
