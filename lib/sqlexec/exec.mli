(** Executor for ML-integrated SQL queries with guardrail interception. *)

exception Runtime_error of string

type context

type stats = {
  rows_scanned : int;
  rows_predicted : int;
  violations : int;
  guardrail_s : float;
  inference_s : float;
}

type result = {
  columns : string list;
  rows : Dataframe.Value.t array list;
  stats : stats;
}

val create : unit -> context
val register_table : context -> string -> Dataframe.Frame.t -> unit

(** Register the model that answers [PREDICT(target)]. With [~table] it
    answers only queries over that table, ahead of a model registered
    without one; without [~table] it answers queries over any table. *)
val register_model :
  context -> ?table:string -> target:string -> Mlmodel.Ensemble.t -> unit

(** Install a compiled guardrail applied to every row before prediction
    (default strategy: [Rectify]). Queries over tables with the guard's
    exact column layout reuse the compilation as-is; a query over any
    other layout re-binds it by column name and compiles it again. *)
val set_guard :
  context ->
  ?strategy:Guardrail.Validator.strategy ->
  Guardrail.Validator.compiled ->
  unit

val clear_guard : context -> unit

(** Parse, plan (with predicate pushdown) and execute. Raises
    {!Runtime_error}, {!Parser.Error}, {!Lexer.Error} or
    [Guardrail.Validator.Violation_error] (raise strategy). *)
val run : context -> string -> result

(** Materialize a result as a frame (column kinds sniffed). *)
val frame_of_result : result -> Dataframe.Frame.t

(** Run a query now and register its result as a queryable table — the
    prototype's materialized-view substitute for JOIN (§7). *)
val register_view : context -> string -> string -> result

(** Row-major vector of the numeric cells of a result (Fig. 6 metric). *)
val numeric_vector : result -> float array

val pp_result : Format.formatter -> result -> unit
