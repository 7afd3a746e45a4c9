(* End-to-end synthesis (paper Fig. 4 workflow + Algorithm 2).

   1. Restrict to categorical attributes.
   2. Draw auxiliary-distribution samples (or raw codes for the identity
      ablation).
   3. Learn the CPDAG of the MEC with the PC algorithm over a chi-square
      CI oracle.
   4. Enumerate the DAGs of the MEC (capped), derive a program sketch from
      each DAG's parent sets, fill it with Algorithm 1, and keep the
      program with the highest coverage (Alg. 2's fitness).

   Statement-level cache: distinct DAGs of one MEC share most parent sets,
   so concretized statements are memoized on (given, on) — the
   implementation optimization described in paper §7.

   Parallelism: with a {!Runtime.Pool} (passed explicitly or created from
   [config.jobs]), three phases fan out across domains — the sampler
   builds one attribute's indicator words per task, the PC skeleton
   batches each conditioning-level's CI tests behind a round barrier
   (stable-PC schedule, see {!Pgm.Pc}), and the HAVING fill runs one
   task per *distinct* statement sketch of the MEC. All three
   decompositions are order-preserving over pure work, and the cache
   counters are derived from the sketch key sequence rather than from
   execution interleaving, so the pipeline returns bit-identical
   programs, coverage and counters at any pool size. *)

module Frame = Dataframe.Frame

let log_src = Logs.Src.create "guardrail.synthesize" ~doc:"GUARDRAIL synthesis pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type timing = {
  total_s : float;
  sampling_s : float;
  structure_s : float;
  enumeration_s : float;
  fill_s : float;
  structure_work_s : float;
  fill_work_s : float;
  jobs : int;
}

type result = {
  program : Dsl.prog;
  coverage : float;
  cpdag : Pgm.Pdag.t;
  dag_count : int;
  truncated : bool;
  columns : int list;        (* frame columns the variables map to *)
  cache_hits : int;
  cache_misses : int;
  timing : timing;
}

let total_time t = t.total_s

let speedup ~wall ~work = if wall > 0.0 then work /. wall else 1.0

let structure_speedup t = speedup ~wall:t.structure_s ~work:t.structure_work_s
let fill_speedup t = speedup ~wall:t.fill_s ~work:t.fill_work_s

let now () = Unix.gettimeofday ()

(* Lock-free accumulation of per-task work seconds across domains. Only
   feeds the timing report; the synthesized program never depends on it. *)
let add_work acc dt =
  let rec go () =
    let old = Atomic.get acc in
    if not (Atomic.compare_and_set acc old (old +. dt)) then go ()
  in
  go ()

let timed_task acc f x =
  let t0 = now () in
  let r = f x in
  add_work acc (now () -. t0);
  r

(* Columns eligible for constraint synthesis: categorical or binned
   numeric/ordinal, non-constant, and of manageable cardinality relative
   to the data size. Binned columns enter with their bin cardinality
   (bins + null bin), which is small by construction. *)
let eligible_columns frame =
  let categorical = Frame.categorical_indices frame in
  let binned =
    List.filter
      (fun c -> Frame.binning frame c <> None)
      (List.init (Frame.ncols frame) Fun.id)
  in
  List.filter
    (fun c ->
      let k = Frame.attr_card frame c in
      k >= 2 && k <= max 2 (Frame.nrows frame / 2))
    (List.sort_uniq Int.compare (categorical @ binned))

(* Attach typed domains (a no-op on frames that already carry them or
   are all-categorical). *)
let prepare_frame frame = Frame.ensure_domains ~bins:Config.bins frame

(* The pool actually used for a run: an explicit [pool] wins; otherwise
   [config.jobs] > 1 spins up a transient pool torn down with the run. *)
let with_pool ?pool (config : Config.t) f =
  match pool with
  | Some p -> f (Some p)
  | None ->
    if config.Config.jobs < 2 then f None
    else begin
      let p = Runtime.Pool.create ~size:config.Config.jobs () in
      Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown p) (fun () ->
          f (Some p))
    end

(* The memoized CI oracle over the samples PC learns from. The
   auxiliary sampler pairs rows, so a frame with fewer than two rows
   falls back to the identity sampler. *)
let ci_oracle ?pool (config : Config.t) frame cols =
  let samples =
    match config.Config.sampler with
    | Config.Auxiliary when Frame.nrows frame >= 2 ->
      Auxdist.circular_shift ?pool ~max_shifts:Config.max_shifts
        ~max_samples:Config.max_samples frame cols
    | Config.Auxiliary | Config.Identity -> Auxdist.identity frame cols
  in
  Auxdist.ci_oracle ~alpha:config.Config.alpha ~max_strata:Config.max_strata
    ~min_effect:Config.min_effect samples

let learn_cpdag ?(config = Config.default) ?pool frame cols =
  let frame = prepare_frame frame in
  with_pool ?pool config (fun pool ->
      let oracle = ci_oracle ?pool config frame cols in
      fst
        (Pgm.Pc.cpdag ~n:(List.length cols) ~max_cond:Config.max_cond ?pool
           oracle))

let run ?(config = Config.default) ?pool frame =
  let frame = prepare_frame frame in
  with_pool ?pool config @@ fun pool ->
  (* Phase wall times are read back from the span events rather than a
     hand-kept accumulator: a phase that is re-entered (or whose work
     overlaps another's on a worker domain) would double-report with
     start/stop bookkeeping, whereas summing the direct-child spans of
     this run's root can never exceed the root's own wall time.
     [Trace.scoped] reuses the caller's collector when one is installed
     (--trace, TRACE command) and otherwise installs a private one, so
     the spans always exist; tracing policy stays with the caller. *)
  Obs.Trace.scoped @@ fun collector ->
  let n_jobs = match pool with Some p -> Runtime.Pool.size p | None -> 1 in
  let cols = eligible_columns frame in
  let n_vars = List.length cols in
  let var_to_col = Array.of_list cols in
  let structure_work = Atomic.make 0.0 in
  let fill_work = Atomic.make 0.0 in
  let root_id = ref (-1) in
  let partial =
    Obs.Span.with_ "synthesize"
      ~attrs:(fun () ->
        [ ("jobs", string_of_int n_jobs); ("vars", string_of_int n_vars) ])
    @@ fun () ->
    root_id := Obs.Span.current_id ();
    let base_oracle =
      Obs.Span.with_ "sampling" @@ fun () -> ci_oracle ?pool config frame cols
    in
    let oracle i j cond =
      timed_task structure_work (fun () -> base_oracle i j cond) ()
    in
    let cpdag =
      Obs.Span.with_ "structure" @@ fun () ->
      fst (Pgm.Pc.cpdag ~n:n_vars ~max_cond:Config.max_cond ?pool oracle)
    in
    let dags, truncated =
      Obs.Span.with_ "enumeration" @@ fun () ->
      Pgm.Enumerate.consistent_extensions ~max_dags:Config.max_dags cpdag
    in
    Log.debug (fun m ->
        m "MEC: %d DAGs%s over %d variables" (List.length dags)
          (if truncated then " (truncated)" else "")
          n_vars);
    (* Algorithm 2 main loop. The statement-level cache is made explicit:
       walk the per-DAG sketch key sequence once to (a) count the hits and
       misses the sequential memoized loop would have seen — a pure
       function of the sequence, not of scheduling — and (b) collect the
       distinct sketches in first-seen order. Each distinct sketch is then
       filled exactly once, fanned out across the pool. *)
    Obs.Span.with_ "fill" @@ fun () ->
    let sketches =
      List.map
        (fun dag -> Sketch.of_dag ~var_to_col:(fun i -> var_to_col.(i)) dag)
        dags
    in
    let hits = ref 0 and misses = ref 0 in
    let seen : (int list * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let distinct = ref [] in
    List.iter
      (List.iter (fun (sk : Sketch.stmt_sketch) ->
           let key = (sk.Sketch.given, sk.Sketch.on) in
           if Hashtbl.mem seen key then incr hits
           else begin
             incr misses;
             Hashtbl.add seen key ();
             distinct := sk :: !distinct
           end))
      sketches;
    let distinct = List.rev !distinct in
    (* one grouping cache for the whole fill fan-out: distinct sketches
       sharing a GIVEN set (and future runs over the same cache) group
       the frame once; the cache is mutex-guarded, so sharing it across
       the pool's domains is safe and the result schedule-independent *)
    let groups = Dataframe.Group.Cache.of_frame frame in
    let filled_distinct =
      Runtime.Pool.parmap ?pool ~chunk:1
        (timed_task fill_work
           (Fill.fill_stmt_sketch ~groups frame ~epsilon:config.Config.epsilon))
        distinct
    in
    let cache : (int list * int, Fill.filled option) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter2
      (fun (sk : Sketch.stmt_sketch) r ->
        Hashtbl.replace cache (sk.Sketch.given, sk.Sketch.on) r)
      distinct filled_distinct;
    let best = ref (Dsl.empty (Frame.schema frame), -1.0) in
    List.iter
      (fun sketch ->
        let filled =
          List.filter_map
            (fun (sk : Sketch.stmt_sketch) ->
              Hashtbl.find cache (sk.Sketch.given, sk.Sketch.on))
            sketch
        in
        let stmts = List.map (fun f -> f.Fill.stmt) filled in
        let coverage =
          match filled with
          | [] -> 0.0
          | fs ->
            List.fold_left (fun acc f -> acc +. f.Fill.coverage) 0.0 fs
            /. float_of_int (List.length fs)
        in
        if coverage > snd !best then
          best := (Dsl.prog ~schema:(Frame.schema frame) stmts, coverage))
      sketches;
    let program, coverage = !best in
    let coverage = Float.max coverage 0.0 in
    Log.info (fun m ->
        m "synthesized %d statements, coverage %.3f (%d cache hits / %d misses, %d jobs)"
          (Dsl.stmt_count program) coverage !hits !misses n_jobs);
    {
      program;
      coverage;
      cpdag;
      dag_count = List.length dags;
      truncated;
      columns = cols;
      cache_hits = !hits;
      cache_misses = !misses;
      timing =
        (* placeholder; replaced below from the recorded spans *)
        {
          total_s = 0.0;
          sampling_s = 0.0;
          structure_s = 0.0;
          enumeration_s = 0.0;
          fill_s = 0.0;
          structure_work_s = 0.0;
          fill_work_s = 0.0;
          jobs = n_jobs;
        };
    }
  in
  (* All spans of this run have completed; fold their events into the
     timing report. Filtering on [parent = root_id] keeps the numbers
     correct even when the ambient collector spans several runs. *)
  let events = Obs.Collector.events collector in
  let phase name =
    List.fold_left
      (fun acc (e : Obs.Collector.event) ->
        if e.parent = !root_id && String.equal e.name name then acc +. e.dur_s
        else acc)
      0.0 events
  in
  let total_s =
    match Obs.Collector.find events !root_id with
    | Some e -> e.Obs.Collector.dur_s
    | None -> 0.0
  in
  {
    partial with
    timing =
      {
        total_s;
        sampling_s = phase "sampling";
        structure_s = phase "structure";
        enumeration_s = phase "enumeration";
        fill_s = phase "fill";
        structure_work_s = Atomic.get structure_work;
        fill_work_s = Atomic.get fill_work;
        jobs = n_jobs;
      };
  }
