(** Algorithm 1: fill a program sketch against a dataset. *)

type filled = {
  stmt : Dsl.stmt;
  coverage : float;  (** |D^s| / |D| over kept branches *)
  loss : int;        (** summed branch loss over kept branches *)
  support : int;     (** rows covered by kept branches *)
}

(** FillStmtSketch: [None] when no branch is ε-valid. A branch must
    also cover at least {!Config.min_support} rows. [groups] must be a
    {!Dataframe.Group.Cache.of_frame} of the same frame; without it the
    determinant grouping is computed from scratch. On a binned dependent
    column the best-fit assignment is the densest run of at most 4
    adjacent bins, emitted as a BETWEEN/<=/>= test over the run's outer
    edges. *)
val fill_stmt_sketch :
  ?groups:Dataframe.Group.Cache.t ->
  Dataframe.Frame.t ->
  epsilon:float ->
  Sketch.stmt_sketch ->
  filled option
