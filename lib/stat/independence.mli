(** Independence tests on categorical data. The stratified conditional
    test lives in {!Ci}; the aliases below keep existing [Independence]
    call sites compiling. *)

type statistic = Ci.statistic = Chi_square | G_test

type result = Ci.result = {
  stat : float;
  df : int;
  p_value : float;
  independent : bool;
}

(** Cramér's-V-style effect size of a summed statistic. *)
val effect_size : kx:int -> ky:int -> n:int -> float -> float

(** Unconditional chi-square / G test of a two-way table. Degenerate tables
    (no two non-empty rows and columns) report independence with p = 1. *)
val test_two_way : ?kind:statistic -> alpha:float -> Contingency.table -> result

(** Cramér's V effect size in [0, 1]. *)
val cramers_v : Contingency.table -> float

(** Mutual information (nats) of a two-way table. *)
val mutual_information : Contingency.table -> float
