(** Algorithm 1: fill a program sketch against a dataset. *)

type filled = {
  stmt : Dsl.stmt;
  coverage : float;  (** |D^s| / |D| over kept branches *)
  loss : int;        (** summed branch loss over kept branches *)
  support : int;     (** rows covered by kept branches *)
}

(** Grouping cache over a frame's columns for {!fill_stmt_sketch}:
    sketches sharing a GIVEN set reuse one group index. *)
val group_cache : Dataframe.Frame.t -> Dataframe.Group.Cache.t

(** FillStmtSketch: [None] when no branch is ε-valid. [min_support] is a
    floor on branch support (defaults to 1 = the paper's behaviour).
    [groups] must be a {!group_cache} of the same frame; without it the
    determinant grouping is computed from scratch. On a binned dependent
    column the best-fit assignment is the densest run of at most 4
    adjacent bins, emitted as a BETWEEN/<=/>= test over the run's outer
    edges. *)
val fill_stmt_sketch :
  ?min_support:int ->
  ?groups:Dataframe.Group.Cache.t ->
  Dataframe.Frame.t ->
  epsilon:float ->
  Sketch.stmt_sketch ->
  filled option

(** Fill a whole sketch; statements with no ε-valid branch are dropped.
    With [pool], statement fills run across the pool's domains; the
    result is identical at every pool size. [groups] defaults to a
    fresh {!group_cache} shared by the statements of this call. *)
val fill_prog_sketch :
  ?min_support:int ->
  ?pool:Runtime.Pool.t ->
  ?groups:Dataframe.Group.Cache.t ->
  Dataframe.Frame.t ->
  epsilon:float ->
  Sketch.prog_sketch ->
  Dsl.prog * filled list
