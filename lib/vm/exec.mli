(** The predicate-bytecode interpreter. *)

(** Result of one batch run over a frame: [per_stmt.(s)] has bit [i]
    set iff row [i] violates statement [s]; [any] is their union. *)
type verdicts = {
  n : int;
  any : Bitmap.t;
  per_stmt : Bitmap.t array;
}

(** [run program frame] executes the bytecode over [frame]'s code
    arrays. [groups], when given, must be the frame's own group cache;
    decision-table partitioning then reuses (and warms) it instead of
    grouping ad hoc. Wrapped in a [vm.exec] span; bumps
    [vm.rows.validated]. Raises [Invalid_argument] when the frame no
    longer carries the dictionaries the program was lowered against, or
    when [groups]' [Group.Cache.frame_key] is not the frame's
    [Frame.Snapshot.key]. *)
val run :
  ?groups:Dataframe.Group.Cache.t -> Program.t -> Dataframe.Frame.t -> verdicts

(** Scalar fallback over one materialized row (values indexed by
    absolute column). Returns [(stmt, rule)] violations in statement
    order — the 1-row VM entry behind [Validator.check_values]. *)
val check_values :
  Ruleset.t array -> Dataframe.Value.t array -> (int * int) list
