(** Majority-vote ensemble over naive Bayes and two decision trees — the
    repo's stand-in for the paper's AutoML backend. *)

type t

val train : ?tree_params:Decision_tree.params -> Dataframe.Frame.t -> label:string -> t

(** [predict t frame rows] is the label code of each row of the
    selection [rows] of [frame] (any frame with the training column
    names; the label column, if present, is ignored), by position. The
    frame's columns are read in place, a feature column at a time. *)
val predict : t -> Dataframe.Frame.t -> int array -> int array

(** The label dictionary: code [c] of {!predict} is the value
    [(labels t).(c)]. *)
val labels : t -> Dataframe.Value.t array

(** Predict the label of one row (any frame with the same column names;
    the label column, if present, is ignored). *)
val predict_row : t -> Dataframe.Frame.t -> int -> Dataframe.Value.t

(** Predict every row as a value; equal to [predict_row] on each row. *)
val predict_frame : t -> Dataframe.Frame.t -> Dataframe.Value.t array

(** Accuracy against the frame's label column; NaN on empty frames. *)
val accuracy : t -> Dataframe.Frame.t -> label:string -> float
