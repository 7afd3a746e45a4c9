(** End-to-end synthesis (paper Fig. 4 + Algorithm 2).

    The pipeline is deterministic across worker counts: {!run} with any
    [pool] size (or none) returns bit-identical [program], [coverage],
    [dag_count] and cache counters — the PC skeleton runs the stable-PC
    round-barrier schedule and the HAVING fill fans out over the
    distinct statement sketches in a fixed order. Only the [timing]
    fields vary with parallelism. *)

(** Phase wall times are derived from the run's [Obs] spans (each
    phase is a direct child span of the run's root span), so they can
    never sum to more than [total_s] — re-entering a phase adds to the
    same named child group instead of double-counting. *)
type timing = {
  total_s : float;           (** whole-run wall time (root span) *)
  sampling_s : float;        (** auxiliary-sampling wall time *)
  structure_s : float;       (** PC structure-learning wall time *)
  enumeration_s : float;     (** MEC enumeration wall time *)
  fill_s : float;            (** HAVING-fill + scoring wall time *)
  structure_work_s : float;  (** summed CI-test time across workers *)
  fill_work_s : float;       (** summed statement-fill time across workers *)
  jobs : int;                (** worker domains the run used *)
}

type result = {
  program : Dsl.prog;
  coverage : float;          (** Alg. 2 fitness of the returned program *)
  cpdag : Pgm.Pdag.t;        (** learned MEC representation *)
  dag_count : int;           (** DAGs enumerated within the MEC *)
  truncated : bool;          (** enumeration hit the [max_dags] cap *)
  columns : int list;        (** frame columns the CPDAG variables map to *)
  cache_hits : int;
  cache_misses : int;
  timing : timing;
}

(** [total_s]: the root span's wall time. *)
val total_time : timing -> float

(** Work-over-wall ratios of the two parallel phases: ~[jobs] when the
    fan-out scales, ~1 when it doesn't (or when running sequentially). *)
val structure_speedup : timing -> float

val fill_speedup : timing -> float

(** Categorical, non-constant columns of tractable cardinality. *)
val eligible_columns : Dataframe.Frame.t -> int list

(** Structure-learning phase only (Table 7). With [pool], the
    PC skeleton's CI tests run across the pool's domains. *)
val learn_cpdag :
  ?config:Config.t ->
  ?pool:Runtime.Pool.t ->
  Dataframe.Frame.t ->
  int list ->
  Pgm.Pdag.t

(** Full pipeline with the defaults of {!Config.default}. An explicit
    [pool] overrides [config.jobs]; otherwise [config.jobs > 1] spins up
    a transient pool for the run. *)
val run : ?config:Config.t -> ?pool:Runtime.Pool.t -> Dataframe.Frame.t -> result
