(** Conditional-independence testing, spec-record API.

    A {!spec} bundles every parameter of a stratified CI test besides
    the data itself; build one with {!make} and run it with {!test}, or
    judge tables counted elsewhere with {!evaluate}. *)

type statistic = Chi_square | G_test

type result = { stat : float; df : int; p_value : float; independent : bool }

type spec = {
  kind : statistic;    (** test statistic *)
  alpha : float;       (** significance level, in (0, 1) *)
  max_strata : int;    (** conditioning-stratum cap *)
  min_effect : float;  (** Cramér's-V floor (large-sample guard) *)
  kx : int;            (** cardinality of the first variable *)
  ky : int;            (** cardinality of the second variable *)
}

(** Smart constructor; validates ranges and raises [Invalid_argument]
    on a spec no test could honour (alpha outside (0, 1), non-positive
    cardinalities, ...). [kind] defaults to [Chi_square]. *)
val make :
  ?kind:statistic ->
  max_strata:int ->
  min_effect:float ->
  alpha:float ->
  kx:int ->
  ky:int ->
  unit ->
  spec

(** Statistic and degrees of freedom of one table; degenerate tables
    (fewer than two non-empty rows or columns) contribute [(0., 0)]. *)
val table_stat : statistic -> Contingency.table -> float * int

(** Cramér's-V-style effect size of a summed statistic. *)
val effect_size : kx:int -> ky:int -> n:int -> float -> float

(** [evaluate spec tables] judges stratified tables of [xs ⊥ ys | cond]
    (as {!Contingency.conditional} or {!Bits.conditional}
    count them): statistics and dfs summed over the tables in list
    order. [None] (the stratum space exceeded [spec.max_strata]) or
    tables without signal report independence (the PC algorithm then
    drops the edge) — the failure mode of the identity sampler in Table
    8 of the paper. Increments the [ci.tests] counter (and
    [ci.conservative] on the no-usable-signal path) in
    [Obs.Metric.default]. *)
val evaluate : spec -> Contingency.table list option -> result

(** [test spec xs ys cond_codes cond_cards] is [evaluate] of the
    {!Contingency.conditional} tables of int codes. Pure and safe to
    call concurrently from several domains. *)
val test :
  spec ->
  int array ->
  int array ->
  int array list ->
  int list ->
  result
