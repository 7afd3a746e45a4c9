(** Categorical naive Bayes with Laplace smoothing. *)

type t

(** [xs] holds one code array per feature (column-major) and [cards]
    their cardinalities; labels with code [-1] are skipped. Raises
    [Invalid_argument] on an empty training set. *)
val train : cards:int array -> n_labels:int -> int array array -> int array -> t

(** Log-scores of the selected rows, row-major: entry [k * n_labels + y]
    is row [rows.(k)]'s score for label [y]. Feature codes outside
    [0 .. card - 1] contribute nothing. *)
val log_scores : t -> Features.column array -> int array -> float array

(** The best-scoring label of each selected row (lowest label on ties). *)
val predict : t -> Features.column array -> int array -> int array
