(** Contingency tables over integer-coded columns. *)

type table = { counts : int array array; kx : int; ky : int; total : int }

val get : table -> int -> int -> int
val row_marginals : table -> int array
val col_marginals : table -> int array

(** Two-way table of code arrays with the given cardinalities; raises
    [Invalid_argument] on length mismatch. *)
val two_way : kx:int -> ky:int -> int array -> int array -> table

(** [extend t ~kx ~ky xs ys ~base] adds rows [base, length xs) of
    append-extended code arrays to [t], growing it to cardinalities
    [kx]/[ky] (dictionary encoding is append-only, so existing codes
    keep their cells). Bit-identical to recounting the full arrays
    with {!two_way} while touching only the delta rows. Raises
    [Invalid_argument] when [base <> t.total], the arrays are shorter
    than [base], or the cardinalities shrank. *)
val extend :
  table -> kx:int -> ky:int -> int array -> int array -> base:int -> table

(** Cap on the cells (distinct strata x kx x ky) of one {!conditional}
    call: 4e6. *)
val max_cells : int

(** One two-way table per non-empty stratum of the conditioning set (in
    first-occurrence order), or [None] when the stratum space exceeds
    [max_strata] or the total cell allocation exceeds {!max_cells}. *)
val conditional :
  kx:int ->
  ky:int ->
  max_strata:int ->
  int array ->
  int array ->
  int array list ->
  int list ->
  table list option
