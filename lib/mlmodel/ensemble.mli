(** Majority-vote ensemble over naive Bayes and two decision trees — the
    repo's stand-in for the paper's AutoML backend. *)

type t

val train : ?tree_params:Decision_tree.params -> Dataframe.Frame.t -> label:string -> t

(** Predict the label of one row (any frame with the same column names;
    the label column, if present, is ignored). *)
val predict_row : t -> Dataframe.Frame.t -> int -> Dataframe.Value.t

(** Predict every row, a feature column at a time; equal to
    [predict_row] on each row. *)
val predict_frame : t -> Dataframe.Frame.t -> Dataframe.Value.t array

(** Accuracy against the frame's label column; NaN on empty frames. *)
val accuracy : t -> Dataframe.Frame.t -> label:string -> float
