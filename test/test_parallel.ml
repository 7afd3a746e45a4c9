(* Determinism of the parallel synthesis pipeline.

   The hard requirement of the shared-pool redesign: Synthesize.run must
   return bit-identical programs, coverage and cache counters at every
   worker count, because the PC skeleton runs the stable-PC
   round-barrier schedule and the HAVING fill fans out in a fixed
   order. *)

module Frame = Dataframe.Frame
module Pool = Runtime.Pool
module Synthesize = Guardrail.Synthesize
module Config = Guardrail.Config

(* ------------------------------------------------------------------ *)
(* Stable-PC round barrier *)

(* Hand-built oracle where the round barrier is observable. Level 0
   removes 1-2. At level 1 the frozen adjacency still lists 1 as a
   neighbour of 0 while edge 0-1 is being removed in the same round, so
   edge 0-2 finds its separating set [1]. An unstable schedule that
   applies the 0-1 removal immediately would leave 0-2 with no
   candidates at all (1-2 is already gone, so adj(2)\{0} is empty) and
   keep the edge. *)
let barrier_oracle i j cond =
  match (Pgm.Pc.sepset_key i j, cond) with
  | (1, 2), [] -> true
  | (0, 1), [ 2 ] -> true
  | (0, 2), [ 1 ] -> true
  | _ -> false

let test_stable_pc_round_barrier () =
  let g, sepsets = Pgm.Pc.skeleton ~n:3 ~max_cond:2 barrier_oracle in
  Alcotest.(check (list (pair int int))) "all edges separated" []
    (Pgm.Pdag.undirected_edges g);
  let sep i j = Pgm.Pc.find_sepset sepsets i j in
  Alcotest.(check (option (list int))) "sepset(1,2)" (Some []) (sep 1 2);
  Alcotest.(check (option (list int))) "sepset(0,1)" (Some [ 2 ]) (sep 0 1);
  (* the edge only an order-independent schedule can separate *)
  Alcotest.(check (option (list int))) "sepset(0,2)" (Some [ 1 ]) (sep 0 2)

let sepsets_to_list sepsets =
  List.sort compare
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sepsets [])

let test_stable_pc_pool_invariant () =
  let reference, ref_seps = Pgm.Pc.skeleton ~n:3 ~max_cond:2 barrier_oracle in
  List.iter
    (fun size ->
      let pool = Pool.create ~size () in
      let g, seps =
        Pgm.Pc.skeleton ~n:3 ~max_cond:2 ~pool barrier_oracle
      in
      Pool.shutdown pool;
      Alcotest.(check bool)
        (Printf.sprintf "skeleton identical at pool size %d" size)
        true
        (Pgm.Pdag.equal reference g);
      Alcotest.(check (list (pair (pair int int) (list int))))
        (Printf.sprintf "sepsets identical at pool size %d" size)
        (sepsets_to_list ref_seps) (sepsets_to_list seps))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* End-to-end determinism across job counts *)

(* three evaluation datasets small enough for a quick suite *)
let dataset_ids = [ 3; 4; 6 ]

let frame_of id =
  let _, frame = Datagen.Generate.dataset (Datagen.Spec.by_id id) in
  frame

type snapshot = {
  text : string;
  coverage : float;
  dag_count : int;
  hits : int;
  misses : int;
}

let snapshot (r : Synthesize.result) =
  {
    text = Guardrail.Pretty.prog_to_string r.Synthesize.program;
    coverage = r.Synthesize.coverage;
    dag_count = r.Synthesize.dag_count;
    hits = r.Synthesize.cache_hits;
    misses = r.Synthesize.cache_misses;
  }

let check_same ~what a b =
  Alcotest.(check string) (what ^ ": program") a.text b.text;
  (* bit-identical, not approximately equal *)
  Alcotest.(check (float 0.0)) (what ^ ": coverage") a.coverage b.coverage;
  Alcotest.(check int) (what ^ ": dag_count") a.dag_count b.dag_count;
  Alcotest.(check int) (what ^ ": cache hits") a.hits b.hits;
  Alcotest.(check int) (what ^ ": cache misses") a.misses b.misses

let test_synthesize_deterministic_across_jobs () =
  let config = Config.make ~jobs:1 () in
  List.iter
    (fun id ->
      let frame = frame_of id in
      let seq = snapshot (Synthesize.run ~config frame) in
      Alcotest.(check bool)
        (Printf.sprintf "dataset %d synthesizes something" id)
        true
        (seq.dag_count >= 1);
      List.iter
        (fun size ->
          let pool = Pool.create ~size () in
          let par = snapshot (Synthesize.run ~config ~pool frame) in
          Pool.shutdown pool;
          check_same
            ~what:(Printf.sprintf "dataset %d, jobs %d" id size)
            seq par)
        [ 2; 4 ])
    dataset_ids

(* config.jobs alone (no explicit pool) must route through the same
   deterministic pipeline *)
let test_config_jobs_equivalent () =
  let frame = frame_of 6 in
  let seq = snapshot (Synthesize.run ~config:(Config.make ~jobs:1 ()) frame) in
  let par = snapshot (Synthesize.run ~config:(Config.make ~jobs:3 ()) frame) in
  check_same ~what:"config.jobs=3 vs jobs=1" seq par

(* ------------------------------------------------------------------ *)
(* Grouping cache under contention *)

(* Four workers ask one cache for the same 22 column sets, each in its
   own order, so callers race for pending slots. Every key must be
   computed once (misses = distinct keys, whatever the schedule), and
   every caller must get that one grouping. *)
let test_group_cache_contention () =
  let frame = frame_of 8 in
  let m = Frame.ncols frame in
  let keys =
    List.init m (fun i -> [ i ])
    @ List.concat (List.init m (fun i -> List.init (m - i - 1) (fun d -> [ i; i + d + 1 ])))
  in
  let keys = List.filteri (fun i _ -> i < 22) keys in
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.Metric.snapshot Obs.Metric.default).Obs.Metric.counters)
  in
  let cache = Dataframe.Group.Cache.of_frame frame in
  let hits = counter "group.cache.hits" and misses = counter "group.cache.misses" in
  let pool = Pool.create ~size:4 () in
  let orders =
    List.init 4 (fun w -> if w mod 2 = 0 then keys else List.rev keys)
  in
  let got =
    Pool.parmap ~pool ~chunk:1
      (fun order -> List.map (fun k -> (k, Dataframe.Group.Cache.get cache k)) order)
      orders
  in
  Pool.shutdown pool;
  let n = List.length keys in
  Alcotest.(check int) "one miss per key" n (counter "group.cache.misses" - misses);
  Alcotest.(check int) "every other call hits" (3 * n) (counter "group.cache.hits" - hits);
  List.iter
    (fun k ->
      let g = List.assoc k (List.hd got) in
      Alcotest.(check bool) "one grouping per key" true
        (List.for_all (fun w -> List.assoc k w == g) got))
    keys

let () =
  Alcotest.run "parallel"
    [
      ( "stable-pc",
        [
          Alcotest.test_case "round barrier" `Quick test_stable_pc_round_barrier;
          Alcotest.test_case "pool invariant" `Quick test_stable_pc_pool_invariant;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1/2/4 identical" `Quick
            test_synthesize_deterministic_across_jobs;
          Alcotest.test_case "config.jobs routing" `Quick
            test_config_jobs_equivalent;
          Alcotest.test_case "group cache contention" `Quick
            test_group_cache_contention;
        ] );
    ]
