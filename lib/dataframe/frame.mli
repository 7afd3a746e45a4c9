(** In-memory relation: a schema plus one dictionary-encoded column per
    attribute.

    Frames are immutable snapshots carrying a lineage identity. The pair
    [Snapshot.key t = (id, epoch)] uniquely identifies frame content:
    every operation either mints a fresh id (all derived frames —
    {!filter}, {!take}, {!project}, {!append}, {!set}, {!set_cells}, the
    constructors) or bumps the epoch along the same lineage ({!extend},
    {!update_cells}). Caches must key on [Snapshot.key], never on
    physical identity, and may consult {!Delta.since} to merge an append
    delta instead of rebuilding. *)

type t

(** Version identity of a snapshot. Two frames with equal {!Snapshot.key}
    hold identical schema, rows and dictionaries. *)
module Snapshot : sig
  val id : t -> int
  val epoch : t -> int
  val key : t -> int * int

  (** Same lineage id: one was produced from the other by a chain of
      {!extend}/{!update_cells} steps (in either direction). *)
  val same_lineage : t -> t -> bool
end

(** What changed along a lineage since a given epoch. *)
module Delta : sig
  type frame := t

  type t =
    | Unchanged  (** [epoch] is the frame's own epoch. *)
    | Rows_appended of { base_rows : int }
        (** Every step since [epoch] was an {!extend}: the first
            [base_rows] rows (codes and dictionary prefixes included)
            are bit-identical to the snapshot at [epoch]; only rows
            [base_rows, nrows) are new. *)
    | Rebuilt
        (** The path is unknown, too old (history window exceeded) or
            includes a cell update: consumers must rebuild. *)

  (** [since t ~epoch] describes how to reach [t] from the snapshot of
      the same lineage at [epoch]. Answers for the frame's own lineage
      only; callers must first check [Snapshot.id]. *)
  val since : frame -> epoch:int -> t

  val pp : Format.formatter -> t -> unit
end

val schema : t -> Schema.t
val nrows : t -> int
val ncols : t -> int
val column : t -> int -> Column.t
val column_by_name : t -> string -> Column.t
val names : t -> string list

(** Index of a named column; raises [Invalid_argument] if absent. *)
val index : t -> string -> int

(** Build from columns; raises [Invalid_argument] on arity or length
    mismatch. *)
val of_columns : Schema.t -> Column.t list -> t

(** Build from row arrays; raises [Invalid_argument] on ragged rows. *)
val of_rows : Schema.t -> Value.t array list -> t

val get : t -> int -> int -> Value.t
val get_by_name : t -> int -> string -> Value.t
val row : t -> int -> Value.t array
val rows : t -> Value.t array list

(** Functional single-cell update. *)
val set : t -> int -> int -> Value.t -> t

(** Functional batch update of [(row, col, value)] cells: one column
    rebuild per touched column. Equivalent to folding {!set} over the
    list (within a cell, later updates win). *)
val set_cells : t -> (int * int * Value.t) list -> t

(** Per-column code arrays — the representation the synthesis pipeline
    operates on. Do not mutate. *)
val code_matrix : t -> int array array

val cardinalities : t -> int array

(** {2 Typed attribute domains}

    A frame may carry learned {!Domain.t} domains, one per column. Binned
    (ordinal/numeric) columns then expose an {e attribute view}: dict-style
    bin codes with cardinality [n_bins + 1] (the extra trailing code is the
    null bin), which is what the grouping and synthesis layers consume.
    Attaching domains makes a new snapshot (fresh lineage id). {!extend}
    maintains the views: under the drift threshold bins extend in place
    (codes stay a prefix); past it bins re-learn, versions bump and the
    delta log restarts, so [Delta.since] answers [Rebuilt].
    Other derivations ({!filter}, {!take}, ...) drop domains. *)

(** Learn domains for every [Ordinal]/[Numeric] schema column: [Distinct]
    binning for ordinals (falling back to quantiles past [bins] distinct
    values), equi-width with [bins] bins for numerics.
    {!extend} re-learns them once more than a fifth of an append's
    values fall outside a column's learned envelope. *)
val learn_domains : bins:int -> t -> t

(** {!learn_domains}, but a no-op (same snapshot) when the frame already
    has domains or the schema is all-categorical. *)
val ensure_domains : bins:int -> t -> t

val has_domains : t -> bool
val domains : t -> Domain.t array option

(** [Categorical] when the frame has no domains. *)
val domain : t -> int -> Domain.t

val binning : t -> int -> Domain.binning option

(** Attribute view of a column: bin codes/cardinality for binned columns,
    the dict codes/cardinality otherwise. Do not mutate. *)
val attr_codes : t -> int -> int array

val attr_card : t -> int -> int
val attr_code_matrix : t -> int array array
val attr_cardinalities : t -> int array

(** Value-level test selecting exactly the rows carrying attribute code
    [code] in column [j]: dict-value equality for categorical columns, the
    bin's interval (or [Eq Null] for the null bin) for binned ones. *)
val attr_atom : t -> int -> int -> Domain.atom

(** Keep rows satisfying [pred t row_index]. *)
val filter : t -> (t -> int -> bool) -> t

(** Gather rows by index (duplicates allowed). *)
val take : t -> int array -> t

(** Restrict to named columns, in the given order. *)
val project : t -> string list -> t

(** Concatenate two frames with identical column names. The result is a
    fresh lineage; use {!extend} to stay on the receiver's lineage. *)
val append : t -> t -> t

(** [extend t rows] appends [rows] on [t]'s own lineage: same
    [Snapshot.id], epoch + 1, and [Delta.since] from any retained
    append-only epoch answers [Rows_appended]. Dictionary encoding is
    append-only, so the result is bit-identical to batch-building the
    concatenated table (and to [append t rows]) — old codes, dicts and
    group ids are all stable. Raises [Invalid_argument] on column-name
    mismatch. *)
val extend : t -> t -> t

(** Like {!set_cells} but on [t]'s lineage: same [Snapshot.id],
    epoch + 1, delta log restarted so earlier epochs answer
    [Delta.Rebuilt]. *)
val update_cells : t -> (int * int * Value.t) list -> t

val head : t -> int -> t
val iter_rows : t -> (int -> unit) -> unit

(** Indices of categorical columns, ascending. *)
val categorical_indices : t -> int list

val pp : Format.formatter -> t -> unit
