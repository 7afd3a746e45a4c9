(* End-to-end benchmark of the three places users feel Guardrail's
   speed: offline synthesis, guarded ML-SQL queries and the serving
   daemon. Run through perfbench/run.sh, which builds it first:

     bash perfbench/run.sh --workload synth_sweep --seed 1 --seconds 30 --trace 0

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics
   are the end-to-end set, measured untraced; with --trace 1 they are
   the per-layer set, from a separate run with the benchmark's own
   spans on. perfbench/README.md describes every workload and metric. *)

let end_to_end =
  [ ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("op_p99_ms", "ms");
    ("ops_per_s", "1/s");
    ("peak_rss_mb", "MB") ]

(* Every per-layer metric is printed on every workload; a layer a
   workload never calls reads 0 there. *)
let per_layer =
  [ ("dataframe.csv_parse_s", "s");
    ("dataframe.group_cache_hit_rate", "ratio");
    ("dataframe.group_cache_extended", "count");
    ("dataframe.group_cache_rebuilt", "count");
    ("core.synth_s", "s");
    ("core.sampling_s", "s");
    ("pgm.structure_s", "s");
    ("pgm.enumeration_s", "s");
    ("core.fill_s", "s");
    ("pgm.dag_count", "count");
    ("stat.ci_tests", "count");
    ("core.ci_cache_hit_rate", "ratio");
    ("runtime.structure_parallelism", "ratio");
    ("runtime.fill_parallelism", "ratio");
    ("sqlexec.parse_plan_ms", "ms");
    ("sqlexec.exec_rest_ms", "ms");
    ("core.guard_ms", "ms");
    ("vm.cache_hit_rate", "ratio");
    ("vm.rows_validated", "count");
    ("mlmodel.inference_ms", "ms");
    ("mlmodel.rows_predicted", "count");
    ("service.codec_us", "us");
    ("service.execute_ms.detect", "ms");
    ("service.execute_ms.sql", "ms");
    ("service.execute_ms.append", "ms");
    ("service.execute_ms.update", "ms");
    ("service.registry_append_ms", "ms");
    ("service.transport_ms", "ms");
    ("service.shed_ratio", "ratio");
    ("serve.read_p50_ms", "ms");
    ("serve.read_p99_ms", "ms");
    ("serve.write_p50_ms", "ms");
    ("serve.write_p99_ms", "ms");
    ("loadgen.late_ms_p99", "ms");
    ("loadgen.highest_met_rps", "1/s") ]
  @ List.concat_map
      (fun i ->
        let step = Printf.sprintf "loadgen.step%d." (i + 1) in
        [ (step ^ "backlog_start", "count");
          (step ^ "backlog_end", "count");
          (step ^ "read_p99_ms", "ms") ])
      (List.init (List.length Serve_mixed.ladder) Fun.id)
  @ [ ("synth_sweep.unattributed_s", "s");
      ("guarded_sql.unattributed_ms", "ms");
      ("serve_mixed.unattributed_ms", "ms");
      ("trace.overhead_ratio", "ratio");
      ("trace.base_op_ms", "ms") ]

let workloads =
  [ ("synth_sweep", Synth_sweep.run);
    ("guarded_sql", Guarded_sql.run);
    ("serve_mixed", Serve_mixed.run) ]

let usage =
  "bench.exe --workload (synth_sweep|guarded_sql|serve_mixed) [--seed N] \
   [--seconds S] [--trace 0|1]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1; 2 is held out)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seconds >= 1 && (!trace = 0 || !trace = 1) -> run
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let traced = !trace = 1 in
  Common.note "calibration kernel: %.2f ms (reference %.2f ms)"
    (1e3 *. Common.calibrate ()) (1e3 *. Common.reference_cal_s);
  let o = run ~seed:!seed ~seconds:(float_of_int !seconds) ~traced in
  let wanted = if traced then per_layer else end_to_end in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) o.Common.metrics in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v = Option.value ~default:0.0 (List.assoc_opt name o.Common.metrics) in
        ( name,
          Obs.Json.Obj
            [ ("value", Obs.Json.Num (if Float.is_finite v then v else 0.0));
              ("unit", Obs.Json.Str unit_) ] ))
      wanted
  in
  let known =
    List.for_all
      (fun (name, _) ->
        List.mem_assoc name per_layer || List.mem_assoc name end_to_end
        || (prerr_endline ("unknown metric " ^ name); false))
      o.Common.metrics
  in
  let correct = o.Common.failed = 0 && o.Common.reconciled && finite && known in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Num (float_of_int o.Common.attempted));
            ("failed", Obs.Json.Num (float_of_int o.Common.failed));
            ("metrics", Obs.Json.Obj metrics) ]))
