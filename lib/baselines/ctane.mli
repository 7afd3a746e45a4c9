(** CTANE: constant conditional functional dependencies. *)

exception Out_of_budget of string

type config = {
  epsilon : float;
  max_lhs : int;
  min_support : int;
  max_rules : int;  (** budget on emitted patterns (branches) *)
}

val default_config : config

(** The constant CFDs as a GUARDRAIL program: one statement per
    (lhs, rhs) with at least one pattern, one equality branch per
    pattern. A pattern is an lhs binding with support ≥ [min_support]
    whose most common rhs value (ties to the lowest code) covers all but
    an [epsilon] share of its rows. Raises {!Out_of_budget} past
    [max_rules] branches. *)
val discover : ?config:config -> Dataframe.Frame.t -> Guardrail.Dsl.prog
