(* Tests for lib/perf: the comparator's exact gate (same, changed,
   missing, added, first runs; ungated metrics as trend only), run
   JSON round-trips including pre-exact-gate history lines, the JSONL
   history file, the stable-measurement runner, and the markdown
   report. *)

module R = Perf.Result
module C = Perf.Compare

let m ?(suite = "s") ?(workload = "w") ?(direction = R.Lower_better)
    ?(gated = true) ~name ~value () =
  R.metric ~suite ~workload ~name ~value ~unit_:"u" ~direction ~gated ()

let run metrics = R.make_run ~rev:"r0" ~unix_time:0.0 metrics

let compare_single ~baseline ~current =
  match
    C.compare_runs ~baseline:(Some (run [ baseline ])) ~current:(run [ current ])
  with
  | [ row ] -> row
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
         | C.Same -> "same"
         | C.Changed -> "changed"
         | C.Missing -> "missing"
         | C.Added -> "added"))
    ( = )

let contains hay needle =
  let len = String.length needle in
  let rec scan i =
    i + len <= String.length hay && (String.sub hay i len = needle || scan (i + 1))
  in
  scan 0

let check_delta label expected row =
  match row.C.delta with
  | Some d ->
    Alcotest.(check bool) label true (Float.abs (d -. expected) < 1e-9)
  | None -> Alcotest.fail "delta expected"

(* ------------------------------------------------------------------ *)
(* The exact gate *)

let test_exact_match () =
  let row =
    compare_single
      ~baseline:(m ~name:"ci.tests" ~value:2628.0 ())
      ~current:(m ~name:"ci.tests" ~value:2628.0 ())
  in
  Alcotest.check verdict "same" C.Same row.C.verdict;
  check_delta "zero delta" 0.0 row;
  Alcotest.(check int) "no failures" 0 (List.length (C.failures [ row ]))

let test_count_off_by_one () =
  (* the smallest move of a work count, either way, fails *)
  List.iter
    (fun value ->
      let row =
        compare_single
          ~baseline:(m ~name:"ci.tests" ~value:2628.0 ())
          ~current:(m ~name:"ci.tests" ~value ())
      in
      Alcotest.check verdict "changed" C.Changed row.C.verdict;
      Alcotest.(check int) "fails" 1 (List.length (C.failures [ row ])))
    [ 2627.0; 2629.0 ]

let test_regression_lower_better () =
  let row =
    compare_single
      ~baseline:(m ~name:"t" ~value:1.00 ())
      ~current:(m ~name:"t" ~value:1.25 ())
  in
  Alcotest.check verdict "changed" C.Changed row.C.verdict;
  check_delta "delta is +25%" 0.25 row

let test_regression_higher_better () =
  let row =
    compare_single
      ~baseline:(m ~direction:R.Higher_better ~name:"cov" ~value:0.5 ())
      ~current:(m ~direction:R.Higher_better ~name:"cov" ~value:0.25 ())
  in
  Alcotest.check verdict "changed" C.Changed row.C.verdict;
  check_delta "delta is -50%" (-0.5) row;
  (* a gated metric that moves the good way fails too: a changed count
     is re-blessed, not forgiven *)
  let row =
    compare_single
      ~baseline:(m ~direction:R.Higher_better ~name:"cov" ~value:0.5 ())
      ~current:(m ~direction:R.Higher_better ~name:"cov" ~value:0.75 ())
  in
  Alcotest.check verdict "changed" C.Changed row.C.verdict;
  check_delta "delta is +50%" 0.5 row;
  Alcotest.(check int) "fails" 1 (List.length (C.failures [ row ]))

let test_improvement_never_fails () =
  (* an ungated time that improves tenfold is trend, never a failure *)
  let rows =
    C.compare_runs
      ~baseline:(Some (run [ m ~gated:false ~name:"t" ~value:1.0 () ]))
      ~current:(run [ m ~gated:false ~name:"t" ~value:0.1 () ])
  in
  Alcotest.(check int) "no failures" 0 (List.length (C.failures rows));
  check_delta "delta is -90%" (-0.9) (List.hd rows)

let test_missing_metric_fails () =
  let rows =
    C.compare_runs
      ~baseline:
        (Some (run [ m ~name:"kept" ~value:1.0 (); m ~name:"lost" ~value:1.0 () ]))
      ~current:(run [ m ~name:"kept" ~value:1.0 () ])
  in
  let fails = C.failures rows in
  Alcotest.(check int) "one failure" 1 (List.length fails);
  Alcotest.check verdict "missing" C.Missing (List.hd fails).C.verdict;
  (* an ungated metric may come and go freely *)
  let rows =
    C.compare_runs
      ~baseline:(Some (run [ m ~gated:false ~name:"info" ~value:1.0 () ]))
      ~current:(run [])
  in
  Alcotest.(check int) "ungated missing ok" 0 (List.length (C.failures rows))

let test_first_run_no_baseline () =
  let rows =
    C.compare_runs ~baseline:None ~current:(run [ m ~name:"t" ~value:9.9 () ])
  in
  Alcotest.(check int) "one row" 1 (List.length rows);
  Alcotest.check verdict "added" C.Added (List.hd rows).C.verdict;
  Alcotest.(check int) "no failures" 0 (List.length (C.failures rows))

let test_added_metric_passes () =
  let rows =
    C.compare_runs
      ~baseline:(Some (run [ m ~name:"old" ~value:1.0 () ]))
      ~current:(run [ m ~name:"old" ~value:1.0 (); m ~name:"new" ~value:5.0 () ])
  in
  Alcotest.(check int) "no failures" 0 (List.length (C.failures rows));
  let added = List.find (fun r -> r.C.key = "s/w/new") rows in
  Alcotest.check verdict "added" C.Added added.C.verdict

let test_ungated_regression_passes () =
  (* a wall time that gets ten times slower is trend only *)
  let rows =
    C.compare_runs
      ~baseline:(Some (run [ m ~gated:false ~name:"t" ~value:1.0 () ]))
      ~current:(run [ m ~gated:false ~name:"t" ~value:10.0 () ])
  in
  Alcotest.check verdict "still judged" C.Changed (List.hd rows).C.verdict;
  Alcotest.(check int) "but not a failure" 0 (List.length (C.failures rows));
  Alcotest.(check bool) "rendered as trend" true
    (contains (C.render rows) "trend")

let test_thresholds_come_from_current () =
  (* the current run's gated flag governs, not the baseline's *)
  let fails ~was ~now =
    List.length
      (C.failures
         (C.compare_runs
            ~baseline:(Some (run [ m ~gated:was ~name:"t" ~value:1.0 () ]))
            ~current:(run [ m ~gated:now ~name:"t" ~value:1.5 () ])))
  in
  Alcotest.(check int) "newly gated fails" 1 (fails ~was:false ~now:true);
  Alcotest.(check int) "no longer gated passes" 0 (fails ~was:true ~now:false)

let test_zero_baseline () =
  (* identical zeros compare clean; a move off zero is a change *)
  let row =
    compare_single
      ~baseline:(m ~name:"z" ~value:0.0 ())
      ~current:(m ~name:"z" ~value:0.0 ())
  in
  Alcotest.check verdict "zero vs zero" C.Same row.C.verdict;
  let row =
    compare_single
      ~baseline:(m ~name:"z" ~value:0.0 ())
      ~current:(m ~name:"z" ~value:0.5 ())
  in
  Alcotest.check verdict "off zero" C.Changed row.C.verdict;
  Alcotest.(check (option (float 0.0))) "infinite move"
    (Some Float.infinity) row.C.delta

(* ------------------------------------------------------------------ *)
(* Schema round-trip, history *)

let sample_run () =
  run
    [ m ~name:"a" ~value:1.5 ();
      m ~direction:R.Higher_better ~gated:true ~name:"b" ~value:19.25 ();
      m ~gated:false ~name:"c" ~value:0.0 () ]

let test_run_json_roundtrip () =
  let r = sample_run () in
  let json = Obs.Json.to_string (R.run_to_json r) in
  match R.run_of_json (Obs.Json.parse json) with
  | Error msg -> Alcotest.fail msg
  | Ok r' ->
    Alcotest.(check bool) "round-trips" true (r = r');
    (* re-parsed run self-compares to zero delta and no failures *)
    let rows = C.compare_runs ~baseline:(Some r') ~current:r in
    Alcotest.(check int) "no failures" 0 (List.length (C.failures rows));
    List.iter
      (fun row ->
        match row.C.delta with
        | Some d -> Alcotest.(check (float 0.0)) "zero delta" 0.0 d
        | None -> Alcotest.fail "delta expected")
      rows

let test_run_json_rejects_bad_version () =
  let j =
    Obs.Json.parse
      {|{"schema_version":99,"rev":"r","unix_time":0,"fingerprint":"f","results":[]}|}
  in
  match R.run_of_json j with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "version 99 accepted"

(* a line as written before gates were exact: run fingerprint,
   per-metric tolerance and optional bound *)
let old_history_line =
  {|{"schema_version":1,"rev":"6efa9b2","unix_time":1760000000,"fingerprint":"23924828bcca6e70","results":[|}
  ^ {|{"suite":"synth","workload":"ds2","metric":"coverage","value":0.7173,"unit":"cov","direction":"higher","gated":true,"tolerance":0.01},|}
  ^ {|{"suite":"groupby","workload":"ds2","metric":"min_cached_speedup","value":11800.3,"unit":"x","direction":"higher","gated":true,"tolerance":0.9,"bound":1},|}
  ^ {|{"suite":"synth","workload":"ds2","metric":"total_s","value":0.0517,"unit":"s","direction":"lower","gated":false,"tolerance":0.25}]}|}

let test_old_history_line () =
  match R.run_of_json (Obs.Json.parse old_history_line) with
  | Error msg -> Alcotest.fail msg
  | Ok old ->
    Alcotest.(check string) "rev" "6efa9b2" old.R.rev;
    Alcotest.(check (list string)) "metrics"
      [ "synth/ds2/coverage"; "groupby/ds2/min_cached_speedup";
        "synth/ds2/total_s" ]
      (List.map R.key old.R.results);
    let current =
      { (run [ m ~name:"coverage" ~suite:"synth" ~workload:"ds2" ~value:0.7173 () ])
        with R.rev = "r1" }
    in
    let md = Perf.Report.markdown [ old; current ] in
    List.iter
      (fun needle ->
        Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
          (contains md needle))
      [ "**synth/ds2/coverage** (gated)"; "baseline: rev `6efa9b2`"; "`r1`" ];
    (* against the old line, the retired gate is missing but ungated *)
    let rows = C.compare_runs ~baseline:(Some old) ~current in
    Alcotest.(check int) "coverage same, retired gate missing" 1
      (List.length (C.failures rows))

let test_history_roundtrip () =
  let path = Filename.temp_file "perf_history" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      (match Perf.History.load path with
       | Ok [] -> ()
       | Ok _ -> Alcotest.fail "missing file should be empty history"
       | Error msg -> Alcotest.fail msg);
      let r1 = sample_run () in
      let r2 = { r1 with R.rev = "r1" } in
      Perf.History.append path r1;
      Perf.History.append path r2;
      match Perf.History.load path with
      | Error msg -> Alcotest.fail msg
      | Ok runs ->
        Alcotest.(check int) "two runs" 2 (List.length runs);
        (match Perf.History.latest runs with
         | Some r -> Alcotest.(check string) "latest is last" "r1" r.R.rev
         | None -> Alcotest.fail "latest expected");
        Alcotest.(check bool) "first run intact" true (List.hd runs = r1))

let test_history_rejects_garbage () =
  let path = Filename.temp_file "perf_history" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "{not json\n";
      close_out oc;
      match Perf.History.load path with
      | Error msg ->
        Alcotest.(check bool) "names the line" true
          (String.length msg > 0
           && String.index_opt msg ':' <> None)
      | Ok _ -> Alcotest.fail "garbage accepted")

(* ------------------------------------------------------------------ *)
(* Measurement runner *)

let test_measure_sample_invariants () =
  let calls = ref 0 in
  let s =
    Perf.Measure.run ~warmup:2 ~reps:5 ~gc_compact:false (fun () -> incr calls)
  in
  Alcotest.(check int) "warmup + reps calls" 7 !calls;
  Alcotest.(check int) "reps recorded" 5 s.Perf.Measure.reps;
  Alcotest.(check bool) "min <= median" true
    (s.Perf.Measure.min_s <= s.Perf.Measure.median_s);
  Alcotest.(check bool) "median <= max" true
    (s.Perf.Measure.median_s <= s.Perf.Measure.max_s)

let test_measure_inner_batching () =
  let calls = ref 0 in
  let s =
    Perf.Measure.run ~warmup:0 ~reps:2 ~inner:50 ~gc_compact:false (fun () ->
        incr calls)
  in
  Alcotest.(check int) "inner x reps calls" 100 !calls;
  Alcotest.(check bool) "per-call time" true (s.Perf.Measure.min_s >= 0.0)

let test_monotonic_clock_advances () =
  let t0 = Perf.Measure.now_s () in
  let t1 = Perf.Measure.now_s () in
  Alcotest.(check bool) "non-decreasing" true (t1 >= t0)

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_markdown () =
  let r1 = sample_run () in
  let r2 = { r1 with R.rev = "r1" } in
  let md = Perf.Report.markdown [ r1; r2 ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains md needle))
    [ "## Benchmark trajectory"; "| metric |"; "s/w/a"; "**s/w/b** (gated)";
      "`r1`" ];
  Alcotest.(check bool) "empty history renders stub" true
    (String.length (Perf.Report.markdown []) > 0)

let () =
  Alcotest.run "perf"
    [
      ( "compare",
        [
          Alcotest.test_case "exact match is same" `Quick test_exact_match;
          Alcotest.test_case "count off by one fails" `Quick
            test_count_off_by_one;
          Alcotest.test_case "regression (lower better)" `Quick
            test_regression_lower_better;
          Alcotest.test_case "regression (higher better)" `Quick
            test_regression_higher_better;
          Alcotest.test_case "improvement never fails" `Quick
            test_improvement_never_fails;
          Alcotest.test_case "missing gated metric fails" `Quick
            test_missing_metric_fails;
          Alcotest.test_case "first run has no baseline" `Quick
            test_first_run_no_baseline;
          Alcotest.test_case "added metric passes" `Quick
            test_added_metric_passes;
          Alcotest.test_case "ungated regression passes" `Quick
            test_ungated_regression_passes;
          Alcotest.test_case "thresholds come from current" `Quick
            test_thresholds_come_from_current;
          Alcotest.test_case "zero baseline" `Quick test_zero_baseline;
        ] );
      ( "schema",
        [
          Alcotest.test_case "run JSON round-trip + self-compare" `Quick
            test_run_json_roundtrip;
          Alcotest.test_case "bad schema version rejected" `Quick
            test_run_json_rejects_bad_version;
          Alcotest.test_case "old history line parses and renders" `Quick
            test_old_history_line;
        ] );
      ( "history",
        [
          Alcotest.test_case "append/load round-trip" `Quick
            test_history_roundtrip;
          Alcotest.test_case "malformed line rejected" `Quick
            test_history_rejects_garbage;
        ] );
      ( "measure",
        [
          Alcotest.test_case "sample invariants" `Quick
            test_measure_sample_invariants;
          Alcotest.test_case "inner batching" `Quick test_measure_inner_batching;
          Alcotest.test_case "monotonic clock" `Quick
            test_monotonic_clock_advances;
        ] );
      ( "report",
        [ Alcotest.test_case "markdown rendering" `Quick test_report_markdown ]
      );
    ]
