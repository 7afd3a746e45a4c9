(** Tuning knobs of the synthesis pipeline. Build a configuration with
    {!make} (every field has the evaluation's default); {!default} is
    [make ()]. *)

type sampler =
  | Auxiliary  (** circular-shift samples of the binary indicator vector, §4.6 *)
  | Identity   (** learn directly on the raw codes (ablation, Table 8) *)

type structure =
  | Pc_mec      (** the paper's pipeline: PC -> CPDAG -> MEC enumeration *)
  | Hill_climb  (** score-based search returning a single DAG (ablation) *)

type t = {
  epsilon : float;        (** branch-level noise tolerance, Eqn. 3 *)
  alpha : float;          (** CI-test significance level for sketch learning *)
  max_cond : int;         (** PC conditioning-set bound *)
  max_dags : int;         (** MEC enumeration cut-off (Alg. 2) *)
  max_shifts : int;       (** circular shifts drawn by the auxiliary sampler *)
  max_samples : int;      (** cap on auxiliary sample count *)
  min_support : int;      (** rows a branch condition must cover to be kept *)
  min_effect : float;     (** Cramér's-V floor for CI tests (large-sample guard) *)
  sampler : sampler;
  structure : structure;  (** sketch-learning strategy *)
  max_strata : int;       (** CI-test stratum cap (identity sampler suffers here) *)
  jobs : int;             (** worker domains for the parallel pipeline *)
  bins : int;             (** learned (equi-width) bins per numeric column *)
}

(** Uniform constructor: every field defaults to the evaluation's
    setting; [jobs] defaults to [$GUARDRAIL_JOBS] when set (and >= 1),
    else 1. Validates ranges and raises [Invalid_argument] on a
    configuration no pipeline run could honour. *)
val make :
  ?epsilon:float ->
  ?alpha:float ->
  ?max_cond:int ->
  ?max_dags:int ->
  ?max_shifts:int ->
  ?max_samples:int ->
  ?min_support:int ->
  ?min_effect:float ->
  ?sampler:sampler ->
  ?structure:structure ->
  ?max_strata:int ->
  ?jobs:int ->
  ?bins:int ->
  unit ->
  t

(** [make ()], evaluated once at start-up (so [$GUARDRAIL_JOBS] is read
    once). *)
val default : t

val pp : Format.formatter -> t -> unit
