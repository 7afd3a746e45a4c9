(* Settings of the synthesis pipeline. A run chooses the noise tolerance
   epsilon (the paper recommends [0.01, 0.05], §8.3), the CI-test
   significance, the sampler and the worker count; everything else is a
   fixed constant of the pipeline, defined once below. *)

type sampler =
  | Auxiliary  (* circular-shift samples of the binary indicator vector, §4.6 *)
  | Identity   (* learn directly on the raw codes (ablation, Table 8) *)

type t = {
  epsilon : float;   (* branch-level noise tolerance, Eqn. 3 *)
  alpha : float;     (* CI-test significance level for sketch learning *)
  sampler : sampler;
  jobs : int;        (* worker domains for the parallel pipeline *)
}

let max_cond = 2
let max_dags = 512
let max_shifts = 11
let max_samples = 120_000
let min_support = 2
let min_effect = 0.02
let max_strata = 4096
let bins = 8

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

let make ?(epsilon = 0.05) ?(alpha = 0.01) ?(sampler = Auxiliary) ?jobs () =
  let jobs = match jobs with Some j -> j | None -> env_jobs () in
  if not (epsilon >= 0.0 && epsilon < 1.0) then
    invalid_arg "Config.make: epsilon must be in [0, 1)";
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Config.make: alpha must be in (0, 1)";
  if jobs < 1 then invalid_arg "Config.make: jobs must be >= 1";
  { epsilon; alpha; sampler; jobs }

let default = make ()
