(* Tuning knobs of the synthesis pipeline, with the defaults used across
   the evaluation. The paper recommends epsilon in [0.01, 0.05] (§8.3). *)

type sampler =
  | Auxiliary  (* circular-shift samples of the binary indicator vector, §4.6 *)
  | Identity   (* learn directly on the raw codes (ablation, Table 8) *)

type structure =
  | Pc_mec      (* the paper's pipeline: PC -> CPDAG -> MEC enumeration *)
  | Hill_climb  (* score-based search returning a single DAG (ablation) *)

type t = {
  epsilon : float;        (* branch-level noise tolerance, Eqn. 3 *)
  alpha : float;          (* CI-test significance level for sketch learning *)
  max_cond : int;         (* PC conditioning-set bound *)
  max_dags : int;         (* MEC enumeration cut-off (Alg. 2) *)
  max_shifts : int;       (* circular shifts drawn by the auxiliary sampler *)
  max_samples : int;      (* cap on auxiliary sample count *)
  min_support : int;      (* rows a branch condition must cover to be kept *)
  min_effect : float;     (* Cramér's-V floor for CI tests (large-sample guard) *)
  sampler : sampler;
  structure : structure;  (* sketch-learning strategy *)
  max_strata : int;       (* CI-test stratum cap (identity sampler suffers here) *)
  jobs : int;             (* worker domains for the parallel pipeline *)
  bins : int;             (* learned (equi-width) bins per numeric column *)
}

(* GUARDRAIL_JOBS seeds the default parallelism, so the whole binary
   (CLI, bench, test suite) switches to the parallel pipeline without
   touching every call site. Results are identical either way — the
   pipeline is deterministic across job counts. *)
let env_jobs () =
  match Sys.getenv_opt "GUARDRAIL_JOBS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> 1)

let make ?(epsilon = 0.05) ?(alpha = 0.01) ?(max_cond = 2) ?(max_dags = 512)
    ?(max_shifts = 11) ?(max_samples = 120_000) ?(min_support = 2)
    ?(min_effect = 0.02) ?(sampler = Auxiliary) ?(structure = Pc_mec)
    ?(max_strata = 4096) ?jobs ?(bins = 8) () =
  let jobs = match jobs with Some j -> j | None -> env_jobs () in
  if not (epsilon >= 0.0 && epsilon < 1.0) then
    invalid_arg "Config.make: epsilon must be in [0, 1)";
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Config.make: alpha must be in (0, 1)";
  if max_cond < 0 then invalid_arg "Config.make: max_cond must be >= 0";
  if max_dags < 1 then invalid_arg "Config.make: max_dags must be >= 1";
  if max_shifts < 1 then invalid_arg "Config.make: max_shifts must be >= 1";
  if max_samples < 1 then invalid_arg "Config.make: max_samples must be >= 1";
  if min_support < 1 then invalid_arg "Config.make: min_support must be >= 1";
  if min_effect < 0.0 then invalid_arg "Config.make: min_effect must be >= 0";
  if max_strata < 1 then invalid_arg "Config.make: max_strata must be >= 1";
  if jobs < 1 then invalid_arg "Config.make: jobs must be >= 1";
  if bins < 1 then invalid_arg "Config.make: bins must be >= 1";
  {
    epsilon;
    alpha;
    max_cond;
    max_dags;
    max_shifts;
    max_samples;
    min_support;
    min_effect;
    sampler;
    structure;
    max_strata;
    jobs;
    bins;
  }

let default = make ()

let pp ppf t =
  Fmt.pf ppf
    "{epsilon=%.3f; alpha=%.3f; max_cond=%d; max_dags=%d; sampler=%s; jobs=%d}"
    t.epsilon t.alpha t.max_cond t.max_dags
    (match t.sampler with Auxiliary -> "auxiliary" | Identity -> "identity")
    t.jobs
