(* synth_sweep: the CSV text of all 12 Table-2 datasets, at full row
   counts, turned into 12 constraint programs by [Csv.of_string] then
   [Synthesize.run] on a 2-worker pool. One operation is one dataset;
   one pass is all 12. Never touches vm, sqlexec, mlmodel or service. *)

open Common
module Spec = Datagen.Spec
module Synthesize = Guardrail.Synthesize

let jobs = 2
let chunks = 3
let spawns = 8

type input = { text : string; reference : string }

(* Everything that identifies a synthesis result bit for bit. *)
let fingerprint (r : Synthesize.result) =
  Printf.sprintf "%s\ncoverage %Lx dags %d truncated %b hits %d misses %d"
    (Guardrail.Pretty.prog_to_string r.Synthesize.program)
    (Int64.bits_of_float r.Synthesize.coverage)
    r.Synthesize.dag_count r.Synthesize.truncated r.Synthesize.cache_hits
    r.Synthesize.cache_misses

(* Inputs from the seed, and the jobs-1 reference outside any timing. *)
let inputs ~seed =
  List.map
    (fun spec ->
      let _, frame = Datagen.Generate.dataset ~seed_offset:seed spec in
      let text = Dataframe.Csv.to_string frame in
      let reference =
        fingerprint
          (Synthesize.run
             ~config:(Guardrail.Config.make ~jobs:1 ())
             (Dataframe.Csv.of_string text))
      in
      { text; reference })
    Spec.all

type op = {
  parse_s : float;
  result : Synthesize.result;
  latency_s : float;   (* parse + synthesis *)
  ok : bool;
}

let synth_one pool input =
  let t0 = now () in
  let frame =
    span "dataframe.csv_parse" (fun () -> Dataframe.Csv.of_string input.text)
  in
  let t1 = now () in
  let result = span "core.synthesize" (fun () -> Synthesize.run ~pool frame) in
  let t2 = now () in
  {
    parse_s = t1 -. t0;
    result;
    latency_s = t2 -. t0;
    ok = String.equal (fingerprint result) input.reference;
  }

type pass = {
  wall_s : float;
  ops : op list;
  rss_mb : float;  (* peak RSS during the pass *)
}

let pass pool inputs =
  Gc.full_major ();
  reset_peak_rss ();
  calibration_point ();
  let ops, wall_s = time (fun () -> List.map (synth_one pool) inputs) in
  { wall_s; ops; rss_mb = peak_rss_mb "self" }

(* Timed passes while another one fits in [seconds] (at least one). *)
let passes pool inputs ~seconds =
  let start = now () in
  let rec go acc =
    match acc with
    | last :: _ when now () -. start +. last.wall_s > seconds -> List.rev acc
    | _ -> go (pass pool inputs :: acc)
  in
  go []

let ops_of passes = List.concat_map (fun p -> p.ops) passes

(* Each dataset's latency, the median over the passes, in input order. *)
let typical_ms passes =
  List.mapi
    (fun i _ -> median (List.map (fun p -> (List.nth p.ops i).latency_s *. 1e3) passes))
    (List.hd passes).ops

(* Times scaled to the reference speed (see [Common.speed]). *)
let end_to_end ~setup_s passes =
  let speed = speed () in
  let typical = List.map (fun t -> t *. speed) (typical_ms passes) in
  [ ("setup_s", setup_s *. speed);
    ("op_p50_ms", median typical);
    ("op_p99_ms", percentile 0.99 typical);
    ("ops_per_s", 1e3 *. float_of_int (List.length typical) /. sum typical);
    ("peak_rss_mb", median (List.map (fun p -> p.rss_mb) passes)) ]

(* Per-layer numbers, per pass (means over the traced passes), from
   the same calls the end-to-end pass time covers. *)
let layers ~before ~after passes =
  let n = float_of_int (List.length passes) in
  let per_pass f = sum (List.map f (ops_of passes)) /. n in
  let timing f = per_pass (fun o -> f o.result.Synthesize.timing) in
  let parse = per_pass (fun o -> o.parse_s) in
  let synth = timing (fun t -> t.Synthesize.total_s) in
  let sampling = timing (fun t -> t.Synthesize.sampling_s) in
  let structure = timing (fun t -> t.Synthesize.structure_s) in
  let enumeration = timing (fun t -> t.Synthesize.enumeration_s) in
  let fill = timing (fun t -> t.Synthesize.fill_s) in
  let wall = mean (List.map (fun p -> p.wall_s) passes) in
  let delta name = counter_delta before after name in
  let hits = per_pass (fun o -> float_of_int o.result.Synthesize.cache_hits) in
  let misses = per_pass (fun o -> float_of_int o.result.Synthesize.cache_misses) in
  let group_hits = delta "group.cache.hits" and group_misses = delta "group.cache.misses" in
  let attributed = parse +. sampling +. structure +. enumeration +. fill in
  ( [ ("dataframe.csv_parse_s", parse);
      ("dataframe.group_cache_hit_rate", ratio group_hits (group_hits +. group_misses));
      ("dataframe.group_cache_extended", delta "group.cache.extended" /. n);
      ("dataframe.group_cache_rebuilt", delta "group.cache.rebuilt" /. n);
      ("core.synth_s", synth);
      ("core.sampling_s", sampling);
      ("pgm.structure_s", structure);
      ("pgm.enumeration_s", enumeration);
      ("core.fill_s", fill);
      ("pgm.dag_count", per_pass (fun o -> float_of_int o.result.Synthesize.dag_count));
      ("stat.ci_tests", delta "ci.tests" /. n);
      ("core.ci_cache_hit_rate", ratio hits (hits +. misses));
      ("runtime.structure_parallelism",
       ratio (timing (fun t -> t.Synthesize.structure_work_s)) structure);
      ("runtime.fill_parallelism", ratio (timing (fun t -> t.Synthesize.fill_work_s)) fill);
      ("synth_sweep.unattributed_s", wall -. attributed) ],
    attributed <= wall && parse +. synth <= wall )

let mean_typical_ms passes = mean (typical_ms passes)

let run ~seed ~seconds ~traced =
  note "synth_sweep: generating 12 datasets (seed %d) and jobs-1 references" seed;
  let inputs = inputs ~seed in
  busy_domains := jobs;
  (* Set-up is spawning the worker pool. Each chunk of passes spawns
     [spawns] pools and keeps the last, so set-up samples are spread
     over the run like the passes are. *)
  let setup_samples = ref [] in
  let deadline = now () +. seconds in
  (* chunk [k] of [n] gets an equal share of the time left after its set-up *)
  let chunk ~left f =
    let spawn () = time (fun () -> Runtime.Pool.create ~size:jobs ()) in
    let pools = List.init spawns (fun _ -> spawn ()) in
    setup_samples := List.map snd pools @ !setup_samples;
    let pool = fst (List.hd pools) in
    List.iter (fun (p, _) -> if p != pool then Runtime.Pool.shutdown p) pools;
    Fun.protect
      ~finally:(fun () -> Runtime.Pool.shutdown pool)
      (fun () ->
        let seconds = (deadline -. now ()) /. float_of_int left in
        f (fun () -> passes pool inputs ~seconds))
  in
  let measured, metrics, reconciled =
    if not traced then
      let ps =
        List.concat
          (List.init chunks (fun k -> chunk ~left:(chunks - k) (fun go -> go ())))
      in
      (ps, end_to_end ~setup_s:(median !setup_samples) ps, true)
    else begin
      let base = chunk ~left:2 (fun go -> go ()) in
      let before = counters () in
      let ps = chunk ~left:1 with_tracing in
      let after = counters () in
      write_trace "synth_sweep";
      let layer, reconciled = layers ~before ~after ps in
      let base_ms = mean_typical_ms base in
      ( base @ ps,
        layer
        @ [ ("trace.overhead_ratio", ratio (mean_typical_ms ps) base_ms);
            ("trace.base_op_ms", base_ms) ],
        reconciled )
    end
  in
  let ops = ops_of measured in
  print_digest "synth_sweep" (List.map (fun i -> i.reference) inputs);
  {
    attempted = List.length ops;
    failed = List.length (List.filter (fun o -> not o.ok) ops);
    reconciled;
    metrics;
  }
