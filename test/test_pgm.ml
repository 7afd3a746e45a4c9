(* Unit and property tests for the PGM substrate: DAGs, PDAGs, Meek rules,
   d-separation, PC structure learning and MEC enumeration. *)

module Dag = Pgm.Dag
module Pdag = Pgm.Pdag
module Meek = Pgm.Meek
module Dsep = Pgm.Dsep
module Pc = Pgm.Pc
module Enumerate = Pgm.Enumerate
module Count = Pgm.Count
module Bn = Pgm.Bayes_net

(* chain 0 -> 1 -> 2 *)
let chain3 () = Dag.of_edges 3 [ (0, 1); (1, 2) ]

(* collider 0 -> 2 <- 1 *)
let collider3 () = Dag.of_edges 3 [ (0, 2); (1, 2) ]

(* the paper's running example: PostalCode -> City -> State -> Country *)
let chain4 () = Dag.of_edges 4 [ (0, 1); (1, 2); (2, 3) ]

(* ------------------------------------------------------------------ *)
(* Dag *)

let test_dag_basic () =
  let g = chain3 () in
  Alcotest.(check (list int)) "parents of 1" [ 0 ] (Dag.parents g 1);
  Alcotest.(check (list int)) "children of 1" [ 2 ] (Dag.children g 1);
  Alcotest.(check bool) "has edge" true (Dag.has_edge g 0 1);
  Alcotest.(check bool) "no reverse edge" false (Dag.has_edge g 1 0);
  Alcotest.(check int) "edge count" 2 (Dag.edge_count g)

let test_dag_toposort () =
  let g = chain3 () in
  Alcotest.(check (option (list int))) "chain order" (Some [ 0; 1; 2 ])
    (Dag.topological_sort g);
  let cyclic = Dag.of_edges 2 [ (0, 1); (1, 0) ] in
  Alcotest.(check bool) "cycle detected" false (Dag.is_acyclic cyclic)

let test_dag_reaches () =
  let g = chain4 () in
  Alcotest.(check bool) "0 reaches 3" true (Dag.reaches g 0 3);
  Alcotest.(check bool) "3 does not reach 0" false (Dag.reaches g 3 0)

let test_dag_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Dag.add_edge: self loop")
    (fun () -> ignore (Dag.add_edge (Dag.create 2) 1 1))

let test_dag_v_structures () =
  Alcotest.(check (list (triple int int int))) "collider found" [ (0, 2, 1) ]
    (Dag.v_structures (collider3 ()));
  Alcotest.(check (list (triple int int int))) "chain has none" []
    (Dag.v_structures (chain3 ()));
  (* shielded collider is not a v-structure *)
  let shielded = Dag.of_edges 3 [ (0, 2); (1, 2); (0, 1) ] in
  Alcotest.(check (list (triple int int int))) "shielded excluded" []
    (Dag.v_structures shielded)

(* ------------------------------------------------------------------ *)
(* Pdag *)

let test_pdag_basic () =
  let g = Pdag.create 3 in
  Pdag.add_undirected g 0 1;
  Pdag.orient g 1 2;
  Alcotest.(check bool) "undirected" true (Pdag.has_undirected g 0 1);
  Alcotest.(check bool) "symmetric" true (Pdag.has_undirected g 1 0);
  Alcotest.(check bool) "directed" true (Pdag.has_directed g 1 2);
  Alcotest.(check bool) "adjacent counts both" true
    (Pdag.adjacent g 0 1 && Pdag.adjacent g 2 1);
  Alcotest.(check (list (pair int int))) "undirected edges" [ (0, 1) ]
    (Pdag.undirected_edges g)

let test_pdag_orient_overrides () =
  let g = Pdag.create 2 in
  Pdag.add_undirected g 0 1;
  Pdag.orient g 0 1;
  Alcotest.(check bool) "no longer undirected" false (Pdag.has_undirected g 0 1);
  Pdag.orient g 1 0;
  Alcotest.(check bool) "re-orientation" true (Pdag.has_directed g 1 0);
  Alcotest.(check bool) "old direction gone" false (Pdag.has_directed g 0 1)

let test_pdag_to_dag () =
  let g = Pdag.create 2 in
  Pdag.add_undirected g 0 1;
  Alcotest.(check bool) "not fully directed" true (Pdag.to_dag g = None);
  Pdag.orient g 0 1;
  match Pdag.to_dag g with
  | Some dag -> Alcotest.(check bool) "edge present" true (Dag.has_edge dag 0 1)
  | None -> Alcotest.fail "expected a DAG"

(* ------------------------------------------------------------------ *)
(* Meek rules *)

let test_meek_rule1 () =
  (* 0 -> 1 - 2 with 0,2 non-adjacent  =>  1 -> 2 *)
  let g = Pdag.create 3 in
  Pdag.orient g 0 1;
  Pdag.add_undirected g 1 2;
  ignore (Meek.close g);
  Alcotest.(check bool) "R1 fires" true (Pdag.has_directed g 1 2)

let test_meek_rule2 () =
  (* 0 -> 1 -> 2 and 0 - 2  =>  0 -> 2 *)
  let g = Pdag.create 3 in
  Pdag.orient g 0 1;
  Pdag.orient g 1 2;
  Pdag.add_undirected g 0 2;
  ignore (Meek.close g);
  Alcotest.(check bool) "R2 fires" true (Pdag.has_directed g 0 2)

let test_meek_rule3 () =
  (* 0 - 1, 0 - 2, 0 - 3, 2 -> 1, 3 -> 1, 2 and 3 non-adjacent => 0 -> 1 *)
  let g = Pdag.create 4 in
  Pdag.add_undirected g 0 1;
  Pdag.add_undirected g 0 2;
  Pdag.add_undirected g 0 3;
  Pdag.orient g 2 1;
  Pdag.orient g 3 1;
  ignore (Meek.close g);
  Alcotest.(check bool) "R3 fires" true (Pdag.has_directed g 0 1)

let test_meek_rule4 () =
  (* 0 - 1, 0 - 2, 0 - 3, 2 -> 3 -> 1, 1 and 2 non-adjacent => 0 -> 1;
     R1-R3 find nothing here, and nothing fires after R4 *)
  let build_new () =
    let g = Pdag.create 4 in
    List.iter (fun (u, v) -> Pdag.add_undirected g u v) [ (0, 1); (0, 2); (0, 3) ];
    Pdag.orient g 2 3;
    Pdag.orient g 3 1;
    g
  in
  let o = Oracle.Pgm.Pdag.create 4 in
  List.iter (fun (u, v) -> Oracle.Pgm.Pdag.add_undirected o u v) [ (0, 1); (0, 2); (0, 3) ];
  Oracle.Pgm.Pdag.orient o 2 3;
  Oracle.Pgm.Pdag.orient o 3 1;
  List.iter
    (fun (name, rule) ->
      Alcotest.(check bool) (name ^ " does not fire") false (rule (build_new ())))
    [ ("R1", Meek.rule1); ("R2", Meek.rule2); ("R3", Meek.rule3) ];
  Alcotest.(check bool) "R4 fires" true (Meek.rule4 (build_new ()));
  let g = Meek.close (build_new ()) in
  let o = Oracle.Pgm.Meek.close o in
  let edges = Alcotest.(list (pair int int)) in
  Alcotest.check edges "directed" [ (0, 1); (2, 3); (3, 1) ] (Pdag.directed_edges g);
  Alcotest.check edges "undirected" [ (0, 2); (0, 3) ] (Pdag.undirected_edges g);
  Alcotest.check edges "oracle directed" (Oracle.Pgm.Pdag.directed_edges o)
    (Pdag.directed_edges g);
  Alcotest.check edges "oracle undirected" (Oracle.Pgm.Pdag.undirected_edges o)
    (Pdag.undirected_edges g)

let test_meek_preserves_colliders () =
  (* collider already oriented: closure must not add or flip edges *)
  let g = Pdag.create 3 in
  Pdag.orient g 0 2;
  Pdag.orient g 1 2;
  ignore (Meek.close g);
  Alcotest.(check bool) "collider intact" true
    (Pdag.has_directed g 0 2 && Pdag.has_directed g 1 2);
  Alcotest.(check bool) "no invented edges" false (Pdag.adjacent g 0 1)

(* ------------------------------------------------------------------ *)
(* d-separation *)

let test_dsep_chain () =
  let g = chain3 () in
  Alcotest.(check bool) "0 dep 2" false (Dsep.d_separated g 0 2 []);
  Alcotest.(check bool) "0 indep 2 | 1" true (Dsep.d_separated g 0 2 [ 1 ])

let test_dsep_collider () =
  let g = collider3 () in
  Alcotest.(check bool) "spouses independent" true (Dsep.d_separated g 0 1 []);
  Alcotest.(check bool) "conditioning opens collider" false
    (Dsep.d_separated g 0 1 [ 2 ])

let test_dsep_collider_descendant () =
  (* 0 -> 2 <- 1, 2 -> 3: conditioning on the descendant 3 also opens it *)
  let g = Dag.of_edges 4 [ (0, 2); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "descendant opens collider" false
    (Dsep.d_separated g 0 1 [ 3 ])

let test_dsep_long_chain () =
  let g = chain4 () in
  Alcotest.(check bool) "ends dependent" false (Dsep.d_separated g 0 3 []);
  Alcotest.(check bool) "middle blocks" true (Dsep.d_separated g 0 3 [ 1 ]);
  Alcotest.(check bool) "late middle blocks" true (Dsep.d_separated g 0 3 [ 2 ])

(* ------------------------------------------------------------------ *)
(* PC with an exact d-separation oracle *)

let cpdag_of g max_cond =
  fst (Pc.cpdag ~n:(Dag.size g) ~max_cond (Dsep.oracle g))

let test_pc_chain_skeleton () =
  (* a chain's CPDAG is fully undirected (no colliders) *)
  let cpdag = cpdag_of (chain4 ()) 2 in
  Alcotest.(check int) "3 undirected edges" 3
    (List.length (Pdag.undirected_edges cpdag));
  Alcotest.(check (list (pair int int))) "no directed edges" []
    (Pdag.directed_edges cpdag);
  Alcotest.(check bool) "skeleton correct" true
    (Pdag.adjacent cpdag 0 1 && Pdag.adjacent cpdag 1 2 && Pdag.adjacent cpdag 2 3
    && (not (Pdag.adjacent cpdag 0 2))
    && not (Pdag.adjacent cpdag 0 3))

let test_pc_collider_oriented () =
  let cpdag = cpdag_of (collider3 ()) 2 in
  Alcotest.(check bool) "collider edges directed" true
    (Pdag.has_directed cpdag 0 2 && Pdag.has_directed cpdag 1 2);
  Alcotest.(check bool) "spouses non-adjacent" false (Pdag.adjacent cpdag 0 1)

let test_pc_collider_then_chain () =
  (* 0 -> 2 <- 1, 2 -> 3: Meek R1 orients 2 -> 3 *)
  let g = Dag.of_edges 4 [ (0, 2); (1, 2); (2, 3) ] in
  let cpdag = cpdag_of g 2 in
  Alcotest.(check bool) "v-structure" true
    (Pdag.has_directed cpdag 0 2 && Pdag.has_directed cpdag 1 2);
  Alcotest.(check bool) "descendant edge propagated" true
    (Pdag.has_directed cpdag 2 3)

let test_pc_subsets () =
  Alcotest.(check int) "3 choose 2" 3 (List.length (Pc.subsets_of_size 2 [ 1; 2; 3 ]));
  Alcotest.(check (list (list int))) "size 0" [ [] ] (Pc.subsets_of_size 0 [ 1; 2 ]);
  Alcotest.(check (list (list int))) "too large" [] (Pc.subsets_of_size 3 [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* MEC enumeration *)

(* synthesis' cap; every class below is far smaller *)
let max_dags = Guardrail.Config.max_dags

let test_enumerate_chain () =
  (* MEC of a 3-chain = {0->1->2, 0<-1->2, 0<-1<-2} = 3 DAGs *)
  let cpdag = cpdag_of (chain3 ()) 2 in
  let dags, truncated = Enumerate.consistent_extensions ~max_dags cpdag in
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check int) "3 members" 3 (List.length dags);
  (* all members share the chain's skeleton and have no v-structure *)
  List.iter
    (fun d ->
      Alcotest.(check (list (triple int int int))) "no collider" []
        (Dag.v_structures d))
    dags;
  (* the true DAG is among them *)
  Alcotest.(check bool) "truth included" true
    (List.exists (fun d -> Dag.equal d (chain3 ())) dags)

let test_enumerate_collider_singleton () =
  let cpdag = cpdag_of (collider3 ()) 2 in
  let dags, _ = Enumerate.consistent_extensions ~max_dags cpdag in
  Alcotest.(check int) "collider MEC is singleton" 1 (List.length dags);
  Alcotest.(check bool) "it is the truth" true
    (Dag.equal (List.hd dags) (collider3 ()))

let test_enumerate_chain4 () =
  (* MEC of a 4-chain: orientations with no collider = 4 *)
  let cpdag = cpdag_of (chain4 ()) 2 in
  let dags, _ = Enumerate.consistent_extensions ~max_dags cpdag in
  Alcotest.(check int) "4 members" 4 (List.length dags);
  let distinct =
    List.sort_uniq Dag.compare dags
  in
  Alcotest.(check int) "no duplicates" (List.length dags) (List.length distinct)

let test_enumerate_cap () =
  (* a complete undirected graph on 5 nodes has many extensions; cap at 3 *)
  let g = Pdag.complete 5 in
  let dags, truncated = Enumerate.consistent_extensions ~max_dags:3 g in
  Alcotest.(check bool) "truncated" true truncated;
  Alcotest.(check int) "capped" 3 (List.length dags)

let test_enumerate_cap_exact () =
  (* the complete graph on 3 nodes has 3! = 6 extensions: truncated only
     when the cap is below 6 *)
  List.iter
    (fun (cap, expected) ->
      let dags, truncated =
        Enumerate.consistent_extensions ~max_dags:cap (Pdag.complete 3)
      in
      let name = Printf.sprintf "cap %d" cap in
      Alcotest.(check bool) (name ^ " truncated") expected truncated;
      Alcotest.(check int) (name ^ " DAGs") (min cap 6) (List.length dags);
      Alcotest.(check (pair int bool)) (name ^ " count")
        (min cap 6, expected)
        (Enumerate.count_extensions ~max_dags:cap (Pdag.complete 3)))
    [ (5, true); (6, false); (7, false) ]

(* ------------------------------------------------------------------ *)
(* DAG counting *)

let test_count_labelled_dags () =
  Alcotest.(check (float 1e-9)) "a(0)" 1.0 (Count.labelled_dags 0);
  Alcotest.(check (float 1e-9)) "a(1)" 1.0 (Count.labelled_dags 1);
  Alcotest.(check (float 1e-9)) "a(2)" 3.0 (Count.labelled_dags 2);
  Alcotest.(check (float 1e-9)) "a(3)" 25.0 (Count.labelled_dags 3);
  Alcotest.(check (float 1e-9)) "a(4)" 543.0 (Count.labelled_dags 4);
  Alcotest.(check (float 1e-3)) "a(5)" 29281.0 (Count.labelled_dags 5)

let test_count_binomial () =
  Alcotest.(check (float 1e-9)) "C(5,2)" 10.0 (Count.binomial 5 2);
  Alcotest.(check (float 1e-9)) "C(10,0)" 1.0 (Count.binomial 10 0)

(* ------------------------------------------------------------------ *)
(* Bayesian networks *)

let cancer_like () =
  Bn.create
    [
      { Bn.name = "a"; card = 2; parents = []; cpt = Bn.root_cpt [| 0.5; 0.5 |] };
      { Bn.name = "b"; card = 2; parents = [ 0 ];
        cpt =
          Bn.noisy_function_cpt ~card:2 ~parent_cards:[ 2 ] ~noise:0.0
            (fun vs -> match vs with [ v ] -> v | _ -> 0) };
      { Bn.name = "c"; card = 3; parents = [ 0; 1 ];
        cpt =
          Bn.noisy_function_cpt ~card:3 ~parent_cards:[ 2; 2 ] ~noise:0.0
            (fun vs -> match vs with [ x; y ] -> (x + y) mod 3 | _ -> 0) };
    ]

let test_bn_deterministic_sampling () =
  let net = cancer_like () in
  let rng = Stat.Rng.create 5 in
  for _ = 1 to 200 do
    let s = Bn.sample net rng in
    Alcotest.(check int) "b = a" s.(0) s.(1);
    Alcotest.(check int) "c = (a+b) mod 3" ((s.(0) + s.(1)) mod 3) s.(2)
  done

let test_bn_marginal () =
  let net = cancer_like () in
  let rng = Stat.Rng.create 6 in
  let ones = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let s = Bn.sample net rng in
    if s.(0) = 1 then incr ones
  done;
  Alcotest.(check bool) "root marginal ~0.5" true (abs (!ones - (n / 2)) < n / 20)

let test_bn_to_dag () =
  let net = cancer_like () in
  let g = Bn.to_dag net in
  Alcotest.(check bool) "edges" true
    (Dag.has_edge g 0 1 && Dag.has_edge g 0 2 && Dag.has_edge g 1 2)

let test_bn_validation () =
  Alcotest.(check bool) "cyclic rejected" true
    (try
       ignore
         (Bn.create
            [
              { Bn.name = "a"; card = 2; parents = [ 1 ];
                cpt = Bn.uniform_cpt ~card:2 ~parent_cards:[ 2 ] };
              { Bn.name = "b"; card = 2; parents = [ 0 ];
                cpt = Bn.uniform_cpt ~card:2 ~parent_cards:[ 2 ] };
            ]);
       false
     with Invalid_argument _ -> true)

let test_bn_config_index () =
  let net = cancer_like () in
  (* node 2 has parents [0; 1] with cards [2; 2] *)
  Alcotest.(check int) "config 0" 0 (Bn.config_index net 2 [| 0; 0; 0 |]);
  Alcotest.(check int) "config mixed" 1 (Bn.config_index net 2 [| 0; 1; 0 |]);
  Alcotest.(check int) "config both" 3 (Bn.config_index net 2 [| 1; 1; 0 |]);
  Alcotest.(check int) "config count" 4 (Bn.config_count net 2)

(* ------------------------------------------------------------------ *)
(* Properties *)

let random_dag_gen =
  (* random DAG on up to 6 nodes: only edges low -> high *)
  QCheck.Gen.(
    sized_size (1 -- 6) (fun n ->
        let pairs =
          List.concat_map
            (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None)
                (List.init n (fun i -> i)))
            (List.init n (fun i -> i))
        in
        let* edges =
          flatten_l
            (List.map (fun e -> map (fun b -> (e, b)) bool) pairs)
        in
        let chosen = List.filter_map (fun (e, b) -> if b then Some e else None) edges in
        return (n, chosen)))

let qcheck_pc_recovers_skeleton =
  QCheck.Test.make ~name:"PC with exact oracle recovers the skeleton" ~count:60
    (QCheck.make random_dag_gen) (fun (n, edges) ->
      let g = Dag.of_edges (max n 1) edges in
      let cpdag = fst (Pc.cpdag ~n:(Dag.size g) ~max_cond:4 (Dsep.oracle g)) in
      List.for_all (fun (u, v) -> Pdag.adjacent cpdag u v) edges
      && List.for_all
           (fun u ->
             List.for_all
               (fun v ->
                 u >= v
                 || Pdag.adjacent cpdag u v
                    = (Dag.has_edge g u v || Dag.has_edge g v u))
               (List.init (Dag.size g) (fun i -> i)))
           (List.init (Dag.size g) (fun i -> i)))

let qcheck_enumerate_contains_truth =
  QCheck.Test.make ~name:"MEC enumeration contains the generating DAG" ~count:40
    (QCheck.make random_dag_gen) (fun (n, edges) ->
      let g = Dag.of_edges (max n 1) edges in
      let cpdag = fst (Pc.cpdag ~n:(Dag.size g) ~max_cond:4 (Dsep.oracle g)) in
      let dags, truncated = Enumerate.consistent_extensions ~max_dags:2000 cpdag in
      truncated || List.exists (fun d -> Dag.equal d g) dags)

let qcheck_enumerate_same_v_structures =
  QCheck.Test.make ~name:"every MEC member has the truth's v-structures" ~count:40
    (QCheck.make random_dag_gen) (fun (n, edges) ->
      let g = Dag.of_edges (max n 1) edges in
      let cpdag = fst (Pc.cpdag ~n:(Dag.size g) ~max_cond:4 (Dsep.oracle g)) in
      let dags, truncated = Enumerate.consistent_extensions ~max_dags:2000 cpdag in
      truncated
      || List.for_all (fun d -> Dag.v_structures d = Dag.v_structures g) dags)

let qcheck_count_extensions =
  QCheck.Test.make ~name:"count_extensions = length and flag of consistent_extensions"
    ~count:60
    QCheck.(pair (make random_dag_gen) (int_range 1 12))
    (fun ((n, edges), max_dags) ->
      let g = Dag.of_edges (max n 1) edges in
      let cpdag = fst (Pc.cpdag ~n:(Dag.size g) ~max_cond:4 (Dsep.oracle g)) in
      let dags, truncated = Enumerate.consistent_extensions ~max_dags cpdag in
      Enumerate.count_extensions ~max_dags cpdag = (List.length dags, truncated))

let () =
  Alcotest.run "pgm"
    [
      ( "dag",
        [
          Alcotest.test_case "basic" `Quick test_dag_basic;
          Alcotest.test_case "toposort" `Quick test_dag_toposort;
          Alcotest.test_case "reachability" `Quick test_dag_reaches;
          Alcotest.test_case "self loop rejected" `Quick test_dag_self_loop;
          Alcotest.test_case "v-structures" `Quick test_dag_v_structures;
        ] );
      ( "pdag",
        [
          Alcotest.test_case "basic" `Quick test_pdag_basic;
          Alcotest.test_case "orientation" `Quick test_pdag_orient_overrides;
          Alcotest.test_case "to_dag" `Quick test_pdag_to_dag;
        ] );
      ( "meek",
        [
          Alcotest.test_case "rule 1" `Quick test_meek_rule1;
          Alcotest.test_case "rule 2" `Quick test_meek_rule2;
          Alcotest.test_case "rule 3" `Quick test_meek_rule3;
          Alcotest.test_case "rule 4" `Quick test_meek_rule4;
          Alcotest.test_case "preserves colliders" `Quick test_meek_preserves_colliders;
        ] );
      ( "dsep",
        [
          Alcotest.test_case "chain" `Quick test_dsep_chain;
          Alcotest.test_case "collider" `Quick test_dsep_collider;
          Alcotest.test_case "collider descendant" `Quick test_dsep_collider_descendant;
          Alcotest.test_case "long chain" `Quick test_dsep_long_chain;
        ] );
      ( "pc",
        [
          Alcotest.test_case "chain skeleton" `Quick test_pc_chain_skeleton;
          Alcotest.test_case "collider oriented" `Quick test_pc_collider_oriented;
          Alcotest.test_case "meek propagation" `Quick test_pc_collider_then_chain;
          Alcotest.test_case "subset enumeration" `Quick test_pc_subsets;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "3-chain MEC" `Quick test_enumerate_chain;
          Alcotest.test_case "collider singleton" `Quick test_enumerate_collider_singleton;
          Alcotest.test_case "4-chain MEC" `Quick test_enumerate_chain4;
          Alcotest.test_case "cap respected" `Quick test_enumerate_cap;
          Alcotest.test_case "cap equal to class size" `Quick test_enumerate_cap_exact;
        ] );
      ( "count",
        [
          Alcotest.test_case "labelled DAG counts" `Quick test_count_labelled_dags;
          Alcotest.test_case "binomial" `Quick test_count_binomial;
        ] );
      ( "bayes_net",
        [
          Alcotest.test_case "deterministic sampling" `Quick test_bn_deterministic_sampling;
          Alcotest.test_case "root marginal" `Quick test_bn_marginal;
          Alcotest.test_case "to_dag" `Quick test_bn_to_dag;
          Alcotest.test_case "cyclic rejected" `Quick test_bn_validation;
          Alcotest.test_case "config index" `Quick test_bn_config_index;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_pc_recovers_skeleton; qcheck_enumerate_contains_truth;
            qcheck_enumerate_same_v_structures; qcheck_count_extensions ] );
    ]
