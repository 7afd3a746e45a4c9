(** The one group-by kernel.

    Groups rows by a tuple of dictionary-coded columns and exposes a
    CSR-style index over the groups. Composite keys use a mixed-radix
    fast path when the cardinality product fits under a cap, and a
    hashed fallback otherwise; both paths assign identical dense group
    ids, numbered in order of first occurrence. All of the pipeline's
    stratification — CI-test strata, HAVING-fill histograms, stripped
    partitions, BIC family counts — is built on this module. *)

type t

(** Cardinality product with the historical early-abort cap semantics
    of [Stat.Contingency.strata]: [None] when the product exceeds
    [cap]. *)
val strata_count : cap:int -> int list -> int option

(** Mixed-radix path chosen when the cardinality product is at most
    this (the {!make} default cap). *)
val default_cap : int

(** [make codes cards n] groups the [n] rows by the given code columns.
    Codes must lie in [0, card). [cap] (default {!default_cap}) bounds
    the mixed-radix key space; larger products take the hashed path.
    Raises [Invalid_argument] on ragged input. With no columns, all
    rows form one group. *)
val make : ?cap:int -> int array list -> int list -> int -> t

(** [extend g codes n] carries a grouping of the first [n_rows g] rows
    forward over append-extended code arrays of length [n].
    Bit-identical to [make codes cards n] — dense first-occurrence ids
    are a pure function of the row partition, and appended rows can
    only join existing groups or mint new ids at the end — but only the
    [n - n_rows g] delta rows are hashed. Raises [Invalid_argument] on
    ragged input or [n < n_rows g]. *)
val extend : t -> int array list -> int -> t

(** Single-column grouping of the first [n] codes (cardinality inferred;
    codes must be non-negative). *)
val of_codes : int -> int array -> t

(** Dense group id per row, in order of first occurrence. Do not
    mutate. *)
val ids : t -> int array

val id : t -> int -> int
val n_groups : t -> int
val n_rows : t -> int

(** CSR offsets, length [n_groups + 1]. Do not mutate. *)
val offsets : t -> int array

(** Row indices sorted by group (ascending within each group), indexed
    by {!offsets}. Do not mutate. *)
val row_index : t -> int array

(** Rows in group [g]. *)
val size : t -> int -> int

(** Group sizes — the marginal distribution of the grouping. *)
val counts : t -> int array

(** First (lowest) row of a group: its first occurrence in row order,
    usable as a representative row. *)
val first_row : t -> int -> int

(** Fresh array of group [g]'s rows, ascending. *)
val rows_of : t -> int -> int array

val iter_rows : t -> int -> (int -> unit) -> unit

(** [histograms t codes ~card] counts, per group, the values of a
    second code array: result.(g).(c) is the number of rows of group
    [g] with [codes.(row) = c]. *)
val histograms : t -> int array -> card:int -> int array array

(** Per-snapshot memo cache over a frame's columns, keyed by
    column-index sets, so repeated groupings are computed once. Lookup
    and compute run under a mutex — safe to share across
    [Runtime.Pool] domains, and each distinct key is computed exactly
    once, keeping the [group.cache.hits]/[group.cache.misses] counters
    in [Obs.Metric.default] schedule-independent. Computing a missing
    entry is wrapped in a [group.key] span. *)
module Cache : sig
  type group := t
  type t

  (** Cache over a frame's columns, keyed by [Frame.Snapshot.key] — the
      only cache identity (caches are never matched on physical frame
      identity). [cap] is forwarded to {!make}. *)
  val of_frame : ?cap:int -> Frame.t -> t

  (** The [(id, epoch)] snapshot key of the frame the cache was built
      over. *)
  val frame_key : t -> int * int

  (** Grouping by the given column indices (order-insensitive; the key
      is the sorted set). *)
  val get : t -> int list -> group

  (** Distinct column sets cached so far. *)
  val length : t -> int

  (** {!advance}'s default: rebuild once the delta exceeds half the
      rows. *)
  val default_rebuild_threshold : float

  (** [advance c frame] carries a cache forward to a later snapshot of
      the same lineage. Same snapshot key: [c] itself. Append delta no
      larger than [rebuild_threshold] of the extended row count: a new
      cache whose entries are {!extend}ed (bit-identical to regrouping,
      counted in [group.cache.extended]). Otherwise — different
      lineage, cell updates, aged-out history or an oversized delta — a
      fresh empty cache for [frame] ([group.cache.rebuilt]). *)
  val advance : ?rebuild_threshold:float -> t -> Frame.t -> t
end
