(** Sketch language (paper Fig. 3) and the LNT/GNT criteria of §4.1. *)

type stmt_sketch = { given : int list; on : int }
type prog_sketch = stmt_sketch list

(** Raises [Invalid_argument] on an empty GIVEN or on ∈ GIVEN. *)
val stmt_sketch : given:int list -> on:int -> stmt_sketch

(** [GIVEN Pa(v) ON v] for every node with parents; [var_to_col] maps DAG
    node indices to column indices (identity by default). *)
val of_dag : ?var_to_col:(int -> int) -> Pgm.Dag.t -> prog_sketch

(** Dense composite coding of a column set: observed value combinations map
    to [0 .. k-1]. Returns codes and [k]. *)
val composite_codes : Dataframe.Frame.t -> int list -> int array * int

(** Local non-triviality (Def. 4.1) via a chi-square dependence test at
    [Config.default.alpha]. *)
val locally_non_trivial : Dataframe.Frame.t -> stmt_sketch -> bool

(** Pairs [(s, s')] where s becomes independent of its determinants when
    conditioning on s''s determinant set — GNT violations (Def. 4.2). *)
val gnt_violations :
  Dataframe.Frame.t -> prog_sketch -> (stmt_sketch * stmt_sketch) list

val pp_stmt_sketch :
  Dataframe.Schema.t -> Format.formatter -> stmt_sketch -> unit
