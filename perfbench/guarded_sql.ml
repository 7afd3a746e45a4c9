(* guarded_sql: the 48 Datagen.Workloads queries (4 per dataset), each
   over its dataset's ML-capped test split with 7% injected errors on
   the governed columns (the RQ2 protocol), behind a registered
   ensemble and a Rectify guard, run in-process for repeated rounds on
   one thread. One operation is one query; one round is all 48. *)

open Common
module Frame = Dataframe.Frame
module Spec = Datagen.Spec
module Exec = Sqlexec.Exec
module Validator = Guardrail.Validator

let ml_row_cap = 12_000
let setup_reps = 3

type dataset = {
  spec : Spec.t;
  train : Frame.t;
  corrupted : Frame.t;  (* test split with injected errors *)
  program : Guardrail.Dsl.prog;  (* synthesized on the clean train split *)
  queries : Datagen.Workloads.query list;
}

(* Inputs from the seed: data, splits, constraints, injected errors. *)
let datasets ~seed pool =
  List.map
    (fun spec ->
      let id = spec.Spec.id in
      let built, capped =
        Datagen.Generate.dataset ~seed_offset:seed
          ~n_rows:(min spec.Spec.n_rows ml_row_cap) spec
      in
      let train, test =
        Dataframe.Split.train_test ~seed:((1000 * seed) + id) ~train_fraction:0.5
          capped
      in
      let synth = Guardrail.Synthesize.run ~pool train in
      let program = Validator.rebind synth.Guardrail.Synthesize.program (Frame.schema test) in
      let columns =
        match Guardrail.Dsl.constrained_attributes program with
        | [] ->
          List.map
            (fun i -> Frame.index test built.Datagen.Netlib.names.(i))
            built.Datagen.Netlib.constrained
        | cols -> cols
      in
      let inj =
        Datagen.Corrupt.inject ~seed:((7919 * seed) + id)
          ~n_errors:(max 1 (Frame.nrows test * 7 / 100))
          ~columns test
      in
      {
        spec;
        train;
        corrupted = inj.Datagen.Corrupt.corrupted;
        program;
        queries = Datagen.Workloads.for_dataset built test;
      })
    Spec.all

(* Set-up, as a user of the guarded-query path pays it: train each
   dataset's ensemble, compile its guard, register table and model. *)
let setup datasets =
  List.map
    (fun d ->
      let model = Mlmodel.Ensemble.train d.train ~label:d.spec.Spec.label in
      let compiled = Validator.compile d.program in
      let ctx = Exec.create () in
      Exec.register_table ctx "t" d.corrupted;
      Exec.register_model ctx ~target:d.spec.Spec.label model;
      Exec.set_guard ctx ~strategy:Validator.Rectify compiled;
      (ctx, d.queries))
    datasets

type op = {
  latency_s : float;
  parse_plan_s : float;   (* traced runs only *)
  stats : Exec.stats;
  ok : bool;
}

let rows_equal (a : Exec.result) (b : Exec.result) =
  a.Exec.columns = b.Exec.columns
  && List.length a.Exec.rows = List.length b.Exec.rows
  && List.for_all2
       (fun x y ->
         Array.length x = Array.length y
         && Array.for_all2 Dataframe.Value.equal x y)
       a.Exec.rows b.Exec.rows

let run_query ctx (q : Datagen.Workloads.query) reference =
  (* Parse and plan again outside [Exec.run] only when traced: the
     library does the same work inside the run, which this span times
     without adding tracing to lib/. *)
  let parse_plan_s =
    if !tracing then
      snd
        (time (fun () ->
             span "sqlexec.parse_plan" (fun () ->
                 Sqlexec.Plan.of_query (Sqlexec.Parser.query q.Datagen.Workloads.sql))))
    else 0.0
  in
  let r, latency_s = time (fun () -> span "sqlexec.run" (fun () -> Exec.run ctx q.Datagen.Workloads.sql)) in
  { latency_s; parse_plan_s; stats = r.Exec.stats; ok = rows_equal r reference }

type round = { wall_s : float; ops : op list }

let round contexts references =
  calibration_point ();
  let ops, wall_s =
    time (fun () ->
        List.concat
          (List.map2
             (fun (ctx, queries) refs -> List.map2 (run_query ctx) queries refs)
             contexts references))
  in
  { wall_s; ops }

(* Rounds while another one fits in [seconds] (at least one). *)
let rounds contexts references ~seconds =
  let start = now () in
  let rec go acc =
    match acc with
    | last :: _ when now () -. start +. last.wall_s > seconds -> List.rev acc
    | _ -> go (round contexts references :: acc)
  in
  go []

let ops_of rounds = List.concat_map (fun r -> r.ops) rounds

(* Each query's latency, the median over the rounds, in mix order. *)
let typical_ms rounds =
  let per_round = List.map (fun r -> Array.of_list (List.map (fun o -> o.latency_s *. 1e3) r.ops)) rounds in
  List.init (Array.length (List.hd per_round)) (fun i ->
      median (List.map (fun a -> a.(i)) per_round))

(* Times scaled to the reference speed (see [Common.speed]). *)
let end_to_end ~setup_s rounds =
  let speed = speed () in
  let typical = List.map (fun t -> t *. speed) (typical_ms rounds) in
  [ ("setup_s", setup_s *. speed);
    ("op_p50_ms", median typical);
    ("op_p99_ms", percentile 0.99 typical);
    ("ops_per_s", 1e3 *. float_of_int (List.length typical) /. sum typical);
    ("peak_rss_mb", peak_rss_mb "self") ]

(* Per-query means; the query's wall time splits into parse/plan,
   guard, inference and the rest (scan, residual eval, group/sort). *)
let layers ~before ~after rounds =
  let ops = ops_of rounds in
  let n = float_of_int (List.length ops) in
  let per_query f = 1e3 *. sum (List.map f ops) /. n in
  let per_round f = sum (List.map f ops) /. float_of_int (List.length rounds) in
  let parse_plan = per_query (fun o -> o.parse_plan_s) in
  let guard = per_query (fun o -> o.stats.Exec.guardrail_s) in
  let inference = per_query (fun o -> o.stats.Exec.inference_s) in
  let query = per_query (fun o -> o.latency_s) in
  let rest = query -. parse_plan -. guard -. inference in
  let wall = 1e3 *. sum (List.map (fun r -> r.wall_s) rounds) /. n in
  let delta name = counter_delta before after name in
  let vm_hits = delta "vm.cache.hits" and vm_misses = delta "vm.cache.misses" in
  let group_hits = delta "group.cache.hits" and group_misses = delta "group.cache.misses" in
  ( [ ("sqlexec.parse_plan_ms", parse_plan);
      ("sqlexec.exec_rest_ms", rest);
      ("core.guard_ms", guard);
      ("vm.cache_hit_rate", ratio vm_hits (vm_hits +. vm_misses));
      ("vm.rows_validated", delta "vm.rows.validated" /. float_of_int (List.length rounds));
      ("mlmodel.inference_ms", inference);
      ("mlmodel.rows_predicted", per_round (fun o -> float_of_int o.stats.Exec.rows_predicted));
      ("dataframe.group_cache_hit_rate", ratio group_hits (group_hits +. group_misses));
      ("guarded_sql.unattributed_ms", wall -. query) ],
    rest >= 0.0 && query <= wall )

let mean_typical_ms rounds = mean (typical_ms rounds)

let run ~seed ~seconds ~traced =
  note "guarded_sql: generating datasets, constraints and errors (seed %d)" seed;
  let datasets =
    let pool = Runtime.Pool.create ~size:2 () in
    Fun.protect
      ~finally:(fun () -> Runtime.Pool.shutdown pool)
      (fun () -> datasets ~seed pool)
  in
  (* Each chunk of rounds starts with a fresh set-up, so set-up samples
     are spread over the run like the rounds are. The reference is the
     first set-up's contexts answering cold. *)
  let setup_samples = ref [] and references = ref None in
  let deadline = now () +. seconds in
  (* chunk [k] of [n] gets an equal share of the time left after its set-up *)
  let chunk ~left f =
    calibration_point ();
    let contexts, s = time (fun () -> setup datasets) in
    setup_samples := s :: !setup_samples;
    let refs =
      match !references with
      | Some r -> r
      | None ->
        let r =
          List.map
            (fun (ctx, queries) ->
              List.map (fun q -> Exec.run ctx q.Datagen.Workloads.sql) queries)
            contexts
        in
        references := Some r;
        r
    in
    let seconds = (deadline -. now ()) /. float_of_int left in
    f (fun () -> rounds contexts refs ~seconds)
  in
  let measured, metrics, reconciled =
    if not traced then
      let rs =
        List.concat
          (List.init setup_reps (fun k -> chunk ~left:(setup_reps - k) (fun go -> go ())))
      in
      (rs, end_to_end ~setup_s:(median !setup_samples) rs, true)
    else begin
      let base = chunk ~left:2 (fun go -> go ()) in
      let before = counters () in
      let rs = chunk ~left:1 with_tracing in
      let after = counters () in
      write_trace "guarded_sql";
      let layer, reconciled = layers ~before ~after rs in
      let base_ms = mean_typical_ms base in
      ( base @ rs,
        layer
        @ [ ("trace.overhead_ratio", ratio (mean_typical_ms rs) base_ms);
            ("trace.base_op_ms", base_ms) ],
        reconciled )
    end
  in
  let ops = ops_of measured in
  print_digest "guarded_sql"
    (List.concat_map
       (List.map (fun r ->
            String.concat "\n"
              (String.concat "," r.Exec.columns
               :: List.map
                    (fun row ->
                      String.concat ","
                        (Array.to_list (Array.map Dataframe.Value.to_string row)))
                    r.Exec.rows)))
       (Option.get !references));
  {
    attempted = List.length ops;
    failed = List.length (List.filter (fun o -> not o.ok) ops);
    reconciled;
    metrics;
  }
