(** Feature extraction: dataframe columns → fitted integer codes. Fitted
    on a training split; unseen test-time values map to a reserved
    unknown code. *)

type t

val fit : Dataframe.Frame.t -> label:string -> t
val n_features : t -> int
val n_labels : t -> int

(** Per-feature cardinalities, the unknown code included. *)
val cards : t -> int array

(** Feature column names, in feature order. *)
val feature_names : t -> string list

val label_value : t -> int -> Dataframe.Value.t
val label_code : t -> Dataframe.Value.t -> int option
val unknown_code : t -> int -> int

(** [code t j v] is the fitted code of value [v] in feature [j] (the
    unknown code when training never saw it). *)
val code : t -> int -> Dataframe.Value.t -> int

(** One feature of a frame as the models read it: the fitted code of row
    [i] is [remap.(codes.(i))]. *)
type column = { remap : int array; codes : int array }

val get : column -> int -> int

(** Every feature column of a frame sharing the column names. [codes] is
    the frame's own code array (not copied) and [remap] costs one lookup
    per distinct value, not per cell. *)
val columns : t -> Dataframe.Frame.t -> column array

(** One row of a frame as one-row columns. *)
val row_columns : t -> Dataframe.Frame.t -> int -> column array

(** Materialized fitted codes, one array per feature (the training
    layout). *)
val encode_columns : t -> Dataframe.Frame.t -> int array array

(** Label codes of a frame's label column (unknown labels become [-1]). *)
val labels : t -> Dataframe.Frame.t -> int array
