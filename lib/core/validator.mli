(** Runtime guardrail: violation detection and the four error-handling
    strategies of paper §7.

    Every checking entry point takes a {!compiled} program: call
    {!compile} once and reuse the compilation across rows, frames and
    requests. Frame-granular entry points ({!violations}, {!detect},
    {!detect_bitmap}, {!handle}) run on lib/vm predicate bytecode —
    lowered once per dictionary set (cached, and shared across row
    subsets and appends that keep the same dictionaries) and executed as
    one fused pass per statement whose key->rule memo lives on the
    lowered program. They are safe to call from several domains at
    once. *)

type violation = {
  row : int;
  stmt : Dsl.stmt;
  branch : Dsl.branch;
  actual : Dataframe.Value.t;
  expected : Dataframe.Value.t;
}

type strategy = Raise | Ignore | Coerce | Rectify

exception Violation_error of string

val strategy_of_string : string -> strategy option
val strategy_to_string : strategy -> string

(** Statements compiled into [Vm.Ruleset] decision tables plus a
    bytecode cache: checking is O(statements) per row on the scalar
    path and columnar on the batch path. *)
type compiled

val compile : Dsl.prog -> compiled

(** The program a compilation was built from. *)
val source : compiled -> Dsl.prog

(** Violations of one materialized row ([row] field is [-1]). *)
val check_values : compiled -> Dataframe.Value.t array -> violation list

(** All violations over a frame: rows ascending, statements in program
    order within a row. With [rows] (ascending row indices), only those
    rows are checked, in place, and each violation's [row] is its
    position in [rows] — the numbering [Frame.take frame rows] would
    give it. *)
val violations :
  ?rows:int array -> compiled -> Dataframe.Frame.t -> violation list

(** Per-row violation flags — the detector output scored in Table 3. *)
val detect : compiled -> Dataframe.Frame.t -> bool array

(** Per-row violation bitmap (the batch detector's native output; bit
    [i] set iff row [i] violates some statement). *)
val detect_bitmap : compiled -> Dataframe.Frame.t -> Vm.Bitmap.t

val describe : Dataframe.Schema.t -> violation -> string

(** Apply a strategy (default [Ignore]) to the rows [rows] (ascending;
    every row when absent), numbering violations as {!violations} does;
    [Raise] raises {!Violation_error} on the first violation.
    [Coerce]/[Rectify] repair all offending cells of the selected rows
    in one batch update of the whole frame, which shares every untouched
    column with the input. *)
val handle :
  ?rows:int array ->
  ?strategy:strategy ->
  compiled ->
  Dataframe.Frame.t ->
  Dataframe.Frame.t * violation list

(** The lowered program for a frame, from the compilation's cache. *)
val bytecode : compiled -> Dataframe.Frame.t -> Vm.Program.t

(** Re-resolve attribute indices by column name against another schema. *)
val rebind : Dsl.prog -> Dataframe.Schema.t -> Dsl.prog
