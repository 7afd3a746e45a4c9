(** Dictionary-encoded column.

    Every distinct value gets a small integer code; cells are stored as a
    code array so statistical hot loops stay allocation-free. *)

type t

val of_values : Value.t array -> t
val of_list : Value.t list -> t

(** Builds a column from raw text fields, one cell at a time. *)
module Builder : sig
  type column := t
  type t

  (** The key space split: see {!push}. *)
  val long : int

  (** A builder for at most [capacity] cells. *)
  val create : int -> t

  (** [push b key src off len] appends the cell [Value.of_raw raw], where
      [raw] is [String.sub src off len] and [key] is the field's packed
      key: a non-negative int, equal for equal fields, and below {!long}
      only when it determines the field (then no byte is compared).
      Keys at or above {!long} are digests: an equal key is confirmed
      against the stored bytes. Only the first sight of a distinct raw
      field is copied, and [Value.of_raw] runs once per distinct raw
      field. Raises [Invalid_argument] past [capacity]. *)
  val push : t -> int -> string -> int -> int -> unit

  (** Cells pushed so far. *)
  val length : t -> int

  (** Distinct raw fields pushed so far. *)
  val distinct : t -> int

  (** The column built so far: codes, dictionary and index equal to
      [of_values] over the pushed cells in order. The builder must not
      be used afterwards. *)
  val finish : t -> column
end

val length : t -> int

(** Number of distinct values ever inserted (codes range over
    [0 .. cardinality - 1]). *)
val cardinality : t -> int

val code : t -> int -> int
val value_of_code : t -> int -> Value.t
val get : t -> int -> Value.t

(** The underlying code array. Do not mutate. *)
val codes : t -> int array

(** The code-to-value dictionary. Do not mutate. *)
val dict : t -> Value.t array

val code_of_value : t -> Value.t -> int option

(** [gather codes rows] is [Array.map (fun i -> codes.(i)) rows], stored
    as plain ints: past the minor heap [Array.map] pays the write
    barrier per element. *)
val gather : int array -> int array -> int array

(** [sub_codes codes pos len] is [Array.sub codes pos len] by a typed
    int loop, for the same reason as {!gather}. *)
val sub_codes : int array -> int -> int -> int array
val to_values : t -> Value.t array

(** Functional single-cell update. *)
val set : t -> int -> Value.t -> t

val update : t -> (int * Value.t) list -> t

(** Keep rows whose index satisfies the predicate. *)
val select : t -> (int -> bool) -> t

(** Gather rows by index (duplicates allowed). *)
val take : t -> int array -> t

val append : t -> t -> t

(** Occurrence count per code. *)
val counts : t -> int array

(** Most frequent value, or [None] on an empty column. *)
val mode : t -> Value.t option
