(** Streaming-ingest state of one registered table: the sufficient
    statistics that make appends cheap and constraint staleness
    detectable.

    Holds a frame-keyed group cache (advanced over append deltas; the
    snapshot's group index for the statistics and for REFRESH), one
    contingency table of GIVEN-grouping × ON per statement (extended
    over delta rows), cumulative per-statement violation counts, and
    an {!Obs.Drift} monitor with two keys per statement — violation
    rate ["viol:GIVEN .. ON .."] and CI effect size
    ["ci:GIVEN .. ON .."]. Baselines are set at load/guard/refresh
    time; every ingest observes the new values, and a statement whose
    keys drift past the thresholds is reported stale so REFRESH can
    re-run Alg. 1 on just that GIVEN set. *)

type t

(** Baseline statistics of a frame under a compiled program. [drift]
    (fresh by default) carries the thresholds; [groups] reuses an
    existing cache of the same frame snapshot. *)
val create :
  ?drift:Obs.Drift.t ->
  ?groups:Dataframe.Group.Cache.t ->
  Guardrail.Validator.compiled ->
  Dataframe.Frame.t ->
  t

(** Drift key of a statement, e.g. ["GIVEN a,b ON c"]. *)
val key_of_stmt : Dataframe.Schema.t -> Guardrail.Dsl.stmt -> string

(** Carry the statistics to a later snapshot of the same lineage.
    Pure-append deltas extend groups, contingency tables and violation
    counts incrementally (bit-identical to recomputation); anything
    else recomputes. Baselines are kept either way. *)
val advance : t -> Guardrail.Validator.compiled -> Dataframe.Frame.t -> t

val epoch : t -> int

(** The group cache of the snapshot at {!epoch}. *)
val groups : t -> Dataframe.Group.Cache.t

val drift : t -> Obs.Drift.t
val readings : t -> Obs.Drift.reading list

(** Indices (program order) of statements flagged stale. *)
val stale_stmts : t -> int list

(** Drift keys currently flagged stale, first-touch order. *)
val stale_keys : t -> string list

(** Cumulative violation rate of statement [index] over the current
    rows (0 for unknown indices). *)
val violation_rate : t -> int -> float
