(** Bit-packed 0/1 columns, 62 samples to an OCaml int word.

    Sample [i] of an [n]-sample column is bit [i mod 62] of word
    [i / 62]; bits past [n] are zero, and words are never negative. *)

(** Samples per word: 62. *)
val width : int

(** [words n]: the number of words an [n]-sample column takes. *)
val words : int -> int

(** [unpack n ws] is the [n]-sample column as one 0/1 int per sample. *)
val unpack : int -> int array -> int array

(** Set bits of a non-negative word. *)
val popcount : int -> int

(** Index of the lowest set bit of a non-zero, non-negative word. *)
val lowest_bit : int -> int

(** A packed column and its number of set bits. The words must not be
    changed once the column is made. *)
type column = private { words : int array; ones : int }

(** [column ws] counts the set bits of [ws] once. *)
val column : int array -> column

(** [conditional ~max_strata ~n x y zs] is
    [Contingency.conditional ~kx:2 ~ky:2 ~max_strata] of the unpacked
    [n]-sample columns, with cardinality 2 for every conditioning column
    [zs]: the same tables in the same order, and [None] in the same
    cases. *)
val conditional :
  max_strata:int ->
  n:int ->
  column ->
  column ->
  column list ->
  Contingency.table list option
