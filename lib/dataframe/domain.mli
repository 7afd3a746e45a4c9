(** Typed attribute domains: learned binnings that give numeric and ordinal
    columns dict-style bin codes, plus the value-level test atoms the DSL
    and the VM share. *)

(** {1 Atoms} *)

type atom =
  | Eq of Value.t                          (** [v = l], structural *)
  | Between of { lo : float; hi : float }  (** [lo <= v <= hi], inclusive *)
  | Le of float                            (** [v <= bound] *)
  | Ge of float                            (** [v >= bound] *)

(** Whether a value satisfies an atom. Numeric atoms test the float image
    ({!Value.to_float}); [Null] and strings fail every numeric atom. *)
val atom_holds : atom -> Value.t -> bool

val equal_atom : atom -> atom -> bool
val compare_atom : atom -> atom -> int

(** Closest satisfying value: the repair target under a range expectation.
    Out-of-range numerics clamp to the violated end; non-numeric actuals
    clamp to the lower bound. [Eq] atoms rectify to their literal. *)
val rectify : atom -> Value.t -> Value.t

(** Integral floats come back as [Value.Int]. *)
val value_of_float : float -> Value.t

val pp_atom : Format.formatter -> atom -> unit

(** {1 Binnings} *)

type method_ =
  | Equi_width  (** equal-width intervals over [min, max] *)
  | Equi_depth  (** quantile boundaries: roughly equal row mass per bin *)
  | Distinct    (** one bin per distinct value (ordinal columns) *)

val equal_method : method_ -> method_ -> bool
val pp_method : Format.formatter -> method_ -> unit

type binning = {
  method_ : method_;
  target : int;         (** requested bin count; re-learning re-uses it *)
  edges : float array;  (** ascending, [n_bins + 1] entries *)
  version : int;        (** bumped on every re-learn past the drift threshold *)
}

val n_bins : binning -> int
val equal_binning : binning -> binning -> bool

(** Bin id of a float, clipping out-of-range values into the edge bins.
    Monotone: [x <= y] implies [assign b x <= assign b y]. *)
val assign : binning -> float -> int

(** Whether a float falls inside the learned [min, max] envelope. *)
val in_range : binning -> float -> bool

(** Value-level test matching {!assign}'s clipping: edge bins are
    open-ended; interior bins use a predecessor-float upper bound so atoms
    of adjacent bins are disjoint. *)
val bin_atom : binning -> int -> atom

(** Test for the contiguous bin run [lo..hi] (both inclusive), the
    HAVING-clause form; boundaries stay at the shared edges. *)
val window_atom : binning -> lo:int -> hi:int -> atom

(** Learn a binning from raw float values (non-finite entries are dropped);
    [None] when no finite value remains. Raises [Invalid_argument] when
    [bins < 1]. [Distinct] falls back to [Equi_depth] past [bins] distinct
    values. *)
val learn : method_ -> bins:int -> float array -> binning option

(** Re-learn with the same recipe over fresh data; the version is bumped so
    snapshot consumers can tell the codes were re-based. *)
val relearn : binning -> float array -> binning

val pp_binning : Format.formatter -> binning -> unit

(** {1 Domains} *)

type t =
  | Categorical
  | Ordinal of binning
  | Numeric of binning

val binning : t -> binning option
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
