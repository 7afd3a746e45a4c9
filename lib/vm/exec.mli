(** The predicate-bytecode interpreter. *)

(** Result of one batch run over a selection of [n] rows:
    [per_stmt.(s)] has bit [k] set iff the selection's [k]-th row
    violates statement [s]; [any] is their union. *)
type verdicts = {
  n : int;
  any : Bitmap.t;
  per_stmt : Bitmap.t array;
}

(** [run ?rows program frame] executes the bytecode over [frame]'s code
    arrays at the selection [rows] (ascending row indices of [frame];
    every row when absent), writing the verdict on [rows.(k)] to bit
    [k]. No row is copied: the kernels read the frame's own columns
    through the selection. Decision tables' key->rule memos fill as keys
    are first seen. Safe to call on one program from several domains at
    once. Wrapped in a [vm.exec] span; bumps [vm.rows.validated] by the
    selection's length. Raises [Invalid_argument] when the frame no
    longer carries the dictionaries the program was lowered against. *)
val run : ?rows:int array -> Program.t -> Dataframe.Frame.t -> verdicts

(** [rule program ~stmt frame row] is the rule of statement [stmt]
    that row [row] of [frame] (a row index, not a selection position)
    matches, if any: read from the table's memo, which [run] has warmed
    for every row it checked, or probed at
    value level for a table past the lowering cap. [frame] must be
    {!Program.compatible}. *)
val rule : Program.t -> stmt:int -> Dataframe.Frame.t -> int -> int option

(** Scalar fallback over one materialized row (values indexed by
    absolute column). Returns [(stmt, rule)] violations in statement
    order — the 1-row VM entry behind [Validator.check_values]. *)
val check_values :
  Ruleset.t array -> Dataframe.Value.t array -> (int * int) list
