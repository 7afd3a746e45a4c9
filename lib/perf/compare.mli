(** Baseline comparison and the regression gate.

    Metrics are aligned by {!Result.key}. A gated metric fails unless
    it equals its baseline exactly; an ungated one is trend only. The
    gated flag is taken from the {e current} run, so the policy
    travels with the code under test rather than being frozen into old
    history lines. *)

type verdict =
  | Same      (** equal to the baseline *)
  | Changed   (** differs from the baseline *)
  | Missing   (** in baseline, absent from current run *)
  | Added     (** in current only (includes first runs) *)

type row = {
  key : string;
  unit_ : string;
  gated : bool;
  baseline : float option;
  current : float option;
  delta : float option;
      (** signed relative change of the current value *)
  verdict : verdict;
}

(** Align and judge. [baseline = None] is the first-run case: every
    current metric is [Added]. *)
val compare_runs :
  baseline:Result.run option -> current:Result.run -> row list

(** Rows that fail the gate: gated and [Changed] or [Missing]. Empty
    means exit 0. *)
val failures : row list -> row list

(** Plain-text delta table; ungated rows read [trend] in place of a
    verdict. [only_gated] defaults to false. *)
val render : ?only_gated:bool -> row list -> string
