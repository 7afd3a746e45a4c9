(** The predicate-bytecode interpreter. *)

(** Result of one batch run over a frame: [per_stmt.(s)] has bit [i]
    set iff row [i] violates statement [s]; [any] is their union. *)
type verdicts = {
  n : int;
  any : Bitmap.t;
  per_stmt : Bitmap.t array;
}

(** [run program frame] executes the bytecode over [frame]'s code
    arrays, filling the decision tables' key->rule memos as keys are
    first seen. Safe to call on one program from several domains at
    once. Wrapped in a [vm.exec] span; bumps [vm.rows.validated].
    Raises [Invalid_argument] when the frame no longer carries the
    dictionaries the program was lowered against. *)
val run : Program.t -> Dataframe.Frame.t -> verdicts

(** [rule program ~stmt frame row] is the rule of statement [stmt]
    that row [row] of [frame] matches, if any: read from the table's
    memo, which [run] has warmed for every row it checked, or probed at
    value level for a table past the lowering cap. [frame] must be
    {!Program.compatible}. *)
val rule : Program.t -> stmt:int -> Dataframe.Frame.t -> int -> int option

(** Scalar fallback over one materialized row (values indexed by
    absolute column). Returns [(stmt, rule)] violations in statement
    order — the 1-row VM entry behind [Validator.check_values]. *)
val check_values :
  Ruleset.t array -> Dataframe.Value.t array -> (int * int) list
