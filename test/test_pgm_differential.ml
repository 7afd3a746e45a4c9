(* Differential suite for the bit-set PDAG kernels.

   [Pgm.Pdag], [Pgm.Meek], [Pgm.Enumerate] and [Pgm.Pc] work on word
   rows; [Oracle.Pgm] is the list-over-boolean-matrix version they
   replaced. The two must agree exactly:

   - every accessor, R1-R4 one at a time (result flag and graph) and
     [Meek.close] on random PDAGs, consistent or not (a pair may be
     directed and undirected at once, or directed both ways);
   - [Pc.cpdag] under d-separation oracles of random DAGs: the same
     CPDAG and separating sets;
   - [Enumerate.consistent_extensions] at max_dags 1, 3, 5, 6, 7 and
     2,000 (the complete graph on 3 nodes has 6 DAGs): the
     same DAGs in the same order, the same truncation flag, and a
     [pgm.enum.closures] delta equal to the oracle's closure count;
     [count_extensions] agrees with both.

   Graph sizes are drawn from 1-12, 13-59 and 60-80 nodes, so rows of
   one word and of two words (62 nodes to a word) both occur. Random
   DAGs are built in a random node order, so that index order is not a
   topological order, in components of at most 8 nodes. The 12
   benchmark datasets' learned CPDAGs are pinned at 2,000 rows. *)

module Pdag = Pgm.Pdag
module Meek = Pgm.Meek
module Enumerate = Pgm.Enumerate
module O = Oracle.Pgm

let failf fmt = Printf.ksprintf failwith fmt

let closures () =
  Obs.Metric.counter_value
    (Obs.Metric.counter Obs.Metric.default "pgm.enum.closures")

(* ---------------------------------------------------------------- *)
(* Graphs as edit scripts, replayed on both representations *)

type op = Undirected of int * int | Orient of int * int | Remove of int * int

let replay_new n ops =
  let g = Pdag.create n in
  List.iter
    (function
      | Undirected (u, v) -> Pdag.add_undirected g u v
      | Orient (u, v) -> Pdag.orient g u v
      | Remove (u, v) -> Pdag.remove_edge g u v)
    ops;
  g

let replay_old n ops =
  let g = O.Pdag.create n in
  List.iter
    (function
      | Undirected (u, v) -> O.Pdag.add_undirected g u v
      | Orient (u, v) -> O.Pdag.orient g u v
      | Remove (u, v) -> O.Pdag.remove_edge g u v)
    ops;
  g

let pp_op = function
  | Undirected (u, v) -> Printf.sprintf "%d-%d" u v
  | Orient (u, v) -> Printf.sprintf "%d>%d" u v
  | Remove (u, v) -> Printf.sprintf "%d/%d" u v

let print_case (n, ops) =
  Printf.sprintf "n=%d [%s]" n (String.concat " " (List.map pp_op ops))

let edges_new g = (Pdag.directed_edges g, Pdag.undirected_edges g)
let edges_old g = (O.Pdag.directed_edges g, O.Pdag.undirected_edges g)

let same_graph what g o =
  if edges_new g <> edges_old o then failf "%s: graphs differ" what

(* ---------------------------------------------------------------- *)
(* Generators *)

let size_gen = QCheck.Gen.(frequency [ (3, 1 -- 12); (1, 13 -- 59); (2, 60 -- 80) ])

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* A random DAG on [n] nodes: in a random order cut into blocks of 8,
   each node takes up to 3 parents among the nodes before it in its
   block. Small components keep PC's conditioning sets small. *)
let dag_edges st n =
  let order = Array.init n Fun.id in
  shuffle st order;
  List.concat
    (List.init n (fun i ->
         let first = i - (i mod 8) in
         let k = Random.State.int st (1 + min (i - first) 3) in
         List.sort_uniq compare
           (List.init k (fun _ -> first + Random.State.int st (i - first)))
         |> List.map (fun j -> (order.(j), order.(i)))))

(* Arbitrary edits: mostly undirected edges and orientations, some
   removals; later edits overwrite or pile onto earlier ones. At most
   [max_undirected] undirected edges survive. *)
let edits_gen ~max_undirected =
  QCheck.Gen.(
    size_gen >>= fun n st ->
    let pair () =
      let u = Random.State.int st n in
      let v = (u + 1 + Random.State.int st (n - 1)) mod n in
      (u, v)
    in
    let ops =
      if n < 2 then []
      else
        List.init (Random.State.int st (1 + min 240 (4 * n))) (fun _ ->
            let u, v = pair () in
            match Random.State.int st 10 with
            | 0 -> Remove (u, v)
            | 1 | 2 | 3 | 4 -> Orient (u, v)
            | _ -> Undirected (u, v))
    in
    let g = replay_new n ops in
    let extra = List.length (Pdag.undirected_edges g) - max_undirected in
    let trim =
      List.filteri (fun i _ -> i < extra) (Pdag.undirected_edges g)
      |> List.map (fun (u, v) -> Orient (u, v))
    in
    (n, ops @ trim))

(* A random DAG with each edge kept directed or made undirected. At
   most [max_undirected] edges are undirected. *)
let dag_pdag_gen ~max_undirected =
  QCheck.Gen.(
    size_gen >>= fun n st ->
    let left = ref max_undirected in
    let ops =
      List.map
        (fun (u, v) ->
          if !left > 0 && Random.State.bool st then begin
            decr left;
            Undirected (u, v)
          end
          else Orient (u, v))
        (dag_edges st n)
    in
    (n, ops))

let pdag_arb ~max_undirected =
  QCheck.make ~print:print_case
    QCheck.Gen.(
      oneof [ edits_gen ~max_undirected; dag_pdag_gen ~max_undirected ])

(* ---------------------------------------------------------------- *)
(* Pdag and Meek *)

let check_accessors g o =
  let n = Pdag.size g in
  same_graph "replay" g o;
  for v = 0 to n - 1 do
    if
      Pdag.neighbors g v <> O.Pdag.neighbors o v
      || Pdag.undirected_neighbors g v <> O.Pdag.undirected_neighbors o v
      || Pdag.parents g v <> O.Pdag.parents o v
      || Pdag.children g v <> O.Pdag.children o v
    then failf "neighbour lists of %d differ" v;
    for u = 0 to n - 1 do
      if
        Pdag.adjacent g u v <> O.Pdag.adjacent o u v
        || Pdag.has_directed g u v <> O.Pdag.has_directed o u v
        || Pdag.has_undirected g u v <> O.Pdag.has_undirected o u v
        || Pdag.directed_reaches g u v <> O.Pdag.directed_reaches o u v
      then failf "edge tests of (%d, %d) differ" u v
    done
  done;
  if Pdag.acyclic g <> O.Pdag.acyclic o then failf "acyclic differs"

let rules =
  [ ("R1", Meek.rule1, O.Meek.rule1); ("R2", Meek.rule2, O.Meek.rule2);
    ("R3", Meek.rule3, O.Meek.rule3); ("R4", Meek.rule4, O.Meek.rule4) ]

let qcheck_meek =
  QCheck.Test.make ~name:"accessors, R1-R4 and close = oracle" ~count:400
    (pdag_arb ~max_undirected:max_int) (fun (n, ops) ->
      let g = replay_new n ops and o = replay_old n ops in
      check_accessors g o;
      List.iter
        (fun (name, rule, oracle_rule) ->
          let g = Pdag.copy g and o = O.Pdag.copy o in
          if rule g <> oracle_rule o then failf "%s: fired flags differ" name;
          same_graph name g o)
        rules;
      same_graph "close" (Meek.close g) (O.Meek.close o);
      true)

(* ---------------------------------------------------------------- *)
(* PC *)

let sorted_sepsets tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let dag_arb =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) edges)))
    QCheck.Gen.(size_gen >>= fun n st -> (n, dag_edges st n))

let qcheck_pc =
  QCheck.Test.make ~name:"Pc.cpdag under d-separation = oracle" ~count:40 dag_arb
    (fun (n, edges) ->
      let indep = Pgm.Dsep.oracle (Pgm.Dag.of_edges n edges) in
      let g, sepsets = Pgm.Pc.cpdag ~n ~max_cond:3 indep in
      let o, oracle_sepsets = O.Pc.cpdag ~n ~max_cond:3 indep in
      same_graph "cpdag" g o;
      if sorted_sepsets sepsets <> sorted_sepsets oracle_sepsets then
        failf "separating sets differ";
      true)

(* ---------------------------------------------------------------- *)
(* Enumeration *)

let dag_edges_sorted d = List.sort compare (Pgm.Dag.edges d)

let check_enumeration ~max_dags g o =
  let c0 = closures () in
  let dags, truncated = Enumerate.consistent_extensions ~max_dags g in
  let ran = closures () - c0 in
  let oracle_dags, oracle_truncated, oracle_closures =
    O.Enumerate.consistent_extensions ~max_dags o
  in
  if List.map dag_edges_sorted dags <> oracle_dags then
    failf "max_dags %d: DAG lists differ (%d vs %d DAGs)" max_dags
      (List.length dags) (List.length oracle_dags);
  if truncated <> oracle_truncated then
    failf "max_dags %d: truncation %b vs %b" max_dags truncated oracle_truncated;
  if ran <> oracle_closures then
    failf "max_dags %d: %d closures vs %d" max_dags ran oracle_closures;
  let c0 = closures () in
  let count = Enumerate.count_extensions ~max_dags g in
  if count <> (List.length dags, truncated) then
    failf "max_dags %d: count_extensions differs" max_dags;
  if closures () - c0 <> ran then
    failf "max_dags %d: count_extensions ran other closures" max_dags

let caps = [ 1; 3; 5; 6; 7; 2_000 ]

(* Arbitrary PDAGs, bounded to few undirected edges: on an inconsistent
   graph every leaf may be cyclic, and then the search visits all of
   them. *)
let qcheck_enumerate_pdags =
  QCheck.Test.make ~name:"enumeration of random PDAGs = oracle" ~count:150
    (pdag_arb ~max_undirected:8) (fun (n, ops) ->
      let g = replay_new n ops and o = replay_old n ops in
      List.iter (fun max_dags -> check_enumeration ~max_dags g o) caps;
      true)

(* Most cases reach the 2,000 cap, where the oracle takes about 0.3 s. *)
let qcheck_enumerate_cpdags =
  QCheck.Test.make ~name:"enumeration of PC CPDAGs = oracle" ~count:12 dag_arb
    (fun (n, edges) ->
      let g, _ = Pgm.Pc.cpdag ~n ~max_cond:3 (Pgm.Dsep.oracle (Pgm.Dag.of_edges n edges)) in
      let ops =
        List.map (fun (u, v) -> Orient (u, v)) (Pdag.directed_edges g)
        @ List.map (fun (u, v) -> Undirected (u, v)) (Pdag.undirected_edges g)
      in
      let o = replay_old n ops in
      same_graph "copy" g o;
      List.iter (fun max_dags -> check_enumeration ~max_dags g o) caps;
      true)

(* R1 takes b's parents as they were on reaching b. Here 65 -> 0 and
   65 - 0 both hold, 65 in the second word: orienting 0 -> 65 for
   parent 1 drops 65 from 0's parents, and 65 must still be visited,
   orienting 0 -> 2 (2 is adjacent to 1 but not to 65). *)
let test_r1_parents_on_entry () =
  let ops =
    [ Orient (1, 0); Orient (65, 0); Undirected (65, 0); Undirected (0, 2);
      Undirected (1, 2) ]
  in
  let g = replay_new 70 ops and o = replay_old 70 ops in
  if not (Meek.rule1 g) then failf "R1 did not fire";
  ignore (O.Meek.rule1 o);
  same_graph "R1" g o;
  if not (Pdag.has_directed g 0 2) then failf "0 -> 2 not oriented"

(* A class of exactly [max_dags] members is not truncated: the complete
   graph on 3 nodes has 3! = 6 DAGs. *)
let test_complete3_caps () =
  let g = Pdag.complete 3 and o = O.Pdag.complete 3 in
  same_graph "complete 3" g o;
  List.iter
    (fun (max_dags, expected) ->
      check_enumeration ~max_dags g o;
      let dags, truncated = Enumerate.consistent_extensions ~max_dags g in
      if truncated <> expected || List.length dags <> min max_dags 6 then
        failf "max_dags %d: %d DAGs, truncated %b" max_dags (List.length dags)
          truncated)
    [ (5, true); (6, false); (7, false) ]

(* The learned CPDAGs of the 12 benchmark datasets, at the synthesis
   cap. *)
let test_datasets () =
  List.iter
    (fun (spec : Datagen.Spec.t) ->
      let _, frame = Datagen.Generate.dataset ~n_rows:2000 ~seed_offset:1 spec in
      let cols = Guardrail.Synthesize.eligible_columns frame in
      let g = Guardrail.Synthesize.learn_cpdag frame cols in
      let o =
        replay_old (Pdag.size g)
          (List.map (fun (u, v) -> Orient (u, v)) (Pdag.directed_edges g)
          @ List.map (fun (u, v) -> Undirected (u, v)) (Pdag.undirected_edges g))
      in
      try
        check_enumeration ~max_dags:Guardrail.Config.max_dags g o
      with Failure m -> failf "dataset %d: %s" spec.Datagen.Spec.id m)
    Datagen.Spec.all

let () =
  Alcotest.run "pgm_differential"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_meek; qcheck_pc; qcheck_enumerate_pdags; qcheck_enumerate_cpdags ] );
      ( "cases",
        [ Alcotest.test_case "R1 parents on entry, two words" `Quick
            test_r1_parents_on_entry;
          Alcotest.test_case "12 learned CPDAGs" `Quick test_datasets;
          Alcotest.test_case "complete 3 at caps 5, 6, 7" `Quick test_complete3_caps ] );
    ]
