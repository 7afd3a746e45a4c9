(** Auxiliary binary distribution (paper Def. 4.5) and its circular-shift
    sampler (§4.6). *)

(** The sampled columns: bit-packed 0/1 indicators ({!Stat.Bits}, each
    with its popcount) from {!circular_shift}, dictionary codes from
    {!identity}. Read them as int arrays with {!columns}. *)
type data = Indicators of Stat.Bits.column array | Codes of int array array

type samples = {
  data : data;
  cards : int list;  (** per-attribute cardinalities (all 2 for indicators) *)
  n_samples : int;
}

(** Binary indicator samples over the given columns: [max_shifts]
    circular shifts of the rows, at most [max_samples] samples. With a
    [pool], one task per column; the words are the same at every pool
    size. Raises [Invalid_argument] on frames with fewer than two rows.
    Must not be called from inside a job running on [pool]. *)
val circular_shift :
  ?pool:Runtime.Pool.t ->
  max_shifts:int ->
  max_samples:int ->
  Dataframe.Frame.t ->
  int list ->
  samples

(** Raw dictionary codes (the Table 8 ablation baseline). *)
val identity : Dataframe.Frame.t -> int list -> samples

(** One int array per attribute, [n_samples] long: indicators unpacked
    to 0/1, codes as stored. *)
val columns : samples -> int array array

(** Conditional-independence oracle over the samples, for {!Pgm.Pc}:
    the {!Stat.Ci} test at [alpha], [max_strata] and [min_effect]. *)
val ci_oracle :
  alpha:float ->
  max_strata:int ->
  min_effect:float ->
  samples ->
  int ->
  int ->
  int list ->
  bool
