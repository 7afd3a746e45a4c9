(** Concrete syntax printer for the DSL; round-trips with {!Parse}. *)

val pp_literal : Format.formatter -> Dsl.literal -> unit

(** [pp_test schema attr] prints one test over [attr]: [name = lit]
    (or [name <- lit] with [~arrow:true], the assignment form),
    [name BETWEEN lo AND hi], [name <= b], [name >= b]. Range bounds
    print in the shortest form that re-parses to the same float. *)
val pp_test :
  ?arrow:bool ->
  Dataframe.Schema.t -> int -> Format.formatter -> Dsl.test -> unit

val pp_atom : Dataframe.Schema.t -> Format.formatter -> Dsl.atom -> unit
val pp_condition : Dataframe.Schema.t -> Format.formatter -> Dsl.condition -> unit

(** The [int] is the statement's ON attribute. *)
val pp_branch : Dataframe.Schema.t -> int -> Format.formatter -> Dsl.branch -> unit

val pp_prog : Format.formatter -> Dsl.prog -> unit
val prog_to_string : Dsl.prog -> string

val pp_stmt_summary : Dataframe.Schema.t -> Format.formatter -> Dsl.stmt -> unit
val pp_prog_summary : Format.formatter -> Dsl.prog -> unit
