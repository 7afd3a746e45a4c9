(** Functional dependencies and FD-based row-level error detection. *)

type t = { lhs : int list; rhs : int }

(** Raises [Invalid_argument] on empty lhs or rhs ∈ lhs. *)
val make : lhs:int list -> rhs:int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Dataframe.Schema.t -> Format.formatter -> t -> unit

(** The frame's rows grouped by the given columns. *)
val group_by : Dataframe.Frame.t -> int list -> Dataframe.Group.t

(** [modes group frame rhs]: per group of [group] (a grouping of
    [frame]'s rows), the most common code of column [rhs] — ties go to
    the lowest code — and its count. *)
val modes : Dataframe.Group.t -> Dataframe.Frame.t -> int -> (int * int) array

(** [branches frame group lhs ~rhs] is [fun g code -> ...]: the
    equality branch binding [lhs] to group [g]'s values and assigning
    [rhs] the value of [code]. [group] must group [frame] by [lhs].
    Branches made by one call share their atoms. *)
val branches :
  Dataframe.Frame.t -> Dataframe.Group.t -> int list -> rhs:int ->
  int -> int -> Guardrail.Dsl.branch

(** g3-style violation count: rows to remove so each lhs group has one rhs
    value. *)
val violation_count : Dataframe.Frame.t -> t -> int

(** Each FD as a GUARDRAIL statement learned on a training split: GIVEN
    lhs ON rhs, one branch per lhs binding, assigning the binding's most
    common rhs value (ties to the lowest code). Check it with
    [Guardrail.Validator]; unseen lhs bindings are not flagged. *)
val program : Dataframe.Frame.t -> t list -> Guardrail.Dsl.prog
