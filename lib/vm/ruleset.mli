(** The VM's source IR: one GUARDRAIL statement as a decision table.

    A rule maps a key tuple of atoms over the [given] columns to an
    expected atom over the [on] column. Key positions are normalized at
    construction: all-equality positions probe by the raw row value,
    all-range positions by the index of the (pairwise disjoint) interval
    containing the row value's float image. Mixing equality and range
    atoms at one position, or overlapping intervals, raises
    [Invalid_argument] — bin atoms ([Dataframe.Domain.bin_atom]) are
    disjoint by construction and always qualify. *)

type rule = {
  key : Dataframe.Domain.atom array;
      (** one atom per GIVEN column, in [given] order *)
  assignment : Dataframe.Domain.atom;
}

type t

(** [make ~given ~on rules] builds the table. [given] must be strictly
    ascending and must not contain [on]; every key must have one atom
    per GIVEN column. On duplicate (normalized) keys the last rule
    wins. Raises [Invalid_argument] on arity or atom-mix violations. *)
val make :
  given:int array ->
  on:int ->
  (Dataframe.Domain.atom array * Dataframe.Domain.atom) array ->
  t

val given : t -> int array
val on : t -> int
val n_rules : t -> int
val rule : t -> int -> rule

(** Accepted ON ranges, built once by {!make}: rule [i]'s
    [Between]/[Le]/[Ge] assignment as the inclusive bounds at [2i] and
    [2i + 1] (infinite for one-sided atoms). Empty when no rule assigns
    a range. Do not mutate. *)
val bounds : t -> float array

(** [find_by t value_at] resolves the rule matched by a row whose value
    at key position [j] is [value_at j]. *)
val find_by : t -> (int -> Dataframe.Value.t) -> int option

(** [find t values] is [find_by] over a dense key tuple: [values.(j)]
    is the row's value for the [j]-th GIVEN column. *)
val find : t -> Dataframe.Value.t array -> int option

(** [check_row t values] probes one materialized row ([values] indexed
    by absolute column) and returns the violated rule, if any: the row
    matches it but fails its assignment atom. *)
val check_row : t -> Dataframe.Value.t array -> int option
