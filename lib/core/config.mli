(** Settings of the synthesis pipeline. A run chooses four of them
    ({!t}); the rest are constants of the pipeline, each defined once
    here. Build a configuration with {!make}; {!default} is
    [make ()]. *)

type sampler =
  | Auxiliary  (** circular-shift samples of the binary indicator vector, §4.6 *)
  | Identity   (** learn directly on the raw codes (ablation, Table 8) *)

type t = {
  epsilon : float;   (** branch-level noise tolerance, Eqn. 3 *)
  alpha : float;     (** CI-test significance level for sketch learning *)
  sampler : sampler;
  jobs : int;        (** worker domains for the parallel pipeline *)
}

(** PC conditioning-set bound. *)
val max_cond : int

(** MEC enumeration cut-off (Alg. 2), in DAGs. *)
val max_dags : int

(** Circular shifts drawn by the auxiliary sampler. *)
val max_shifts : int

(** Cap on the auxiliary sample count. *)
val max_samples : int

(** Rows a branch condition must cover to be kept. *)
val min_support : int

(** Cramér's-V floor of the synthesis CI tests (large-sample guard). *)
val min_effect : float

(** CI-test stratum cap (the identity sampler suffers here). *)
val max_strata : int

(** Learned (equi-width) bins per numeric column. *)
val bins : int

(** [epsilon] defaults to 0.05, [alpha] to 0.01, [sampler] to
    [Auxiliary]; [jobs] defaults to [$GUARDRAIL_JOBS] when set (and
    >= 1), else 1. Raises [Invalid_argument] on a setting no run could
    honour. *)
val make :
  ?epsilon:float -> ?alpha:float -> ?sampler:sampler -> ?jobs:int -> unit -> t

(** [make ()], evaluated once at start-up (so [$GUARDRAIL_JOBS] is read
    once). *)
val default : t
