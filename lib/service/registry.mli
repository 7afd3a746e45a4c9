(** Thread-safe sharded table registry — the daemon's compile-once
    cache. Each entry holds a frame, its constraint program parsed and
    compiled exactly once, and an optional prediction model, so request
    handling never re-parses or re-compiles.

    The map is split across N independently-locked shards by table-name
    hash; requests for different tables proceed without contending on a
    global mutex. {!entry} is an immutable snapshot handle: a record
    returned by {!find}/{!load} keeps pinning its frame, compiled
    program and ingest state even if the table is concurrently replaced
    or removed — replacement installs a new record, it never mutates an
    existing one. The ingest state's group cache is the only group
    index of the entry's snapshot: requests over the registered frame
    validate with it, and the compilation caches only bytecode. *)

type program = {
  text : string;                  (** .grl source as received *)
  prog : Guardrail.Dsl.prog;
  compiled : Guardrail.Validator.compiled;
}

type entry = {
  frame : Dataframe.Frame.t;
  program : program option;
  model : (string * Mlmodel.Ensemble.t) option;  (** label, ensemble *)
  ingest : Ingest.t option;
      (** streaming statistics + drift monitor, present iff [program]
          is: baselined at load/guard/refresh, advanced on every
          append/update *)
}

type t

(** [create ?shards ()] builds a registry with [shards] independently
    locked partitions (default 8; must be >= 1). *)
val create : ?shards:int -> unit -> t

(** Number of partitions fixed at {!create} time. *)
val shard_count : t -> int

(** Register (or replace) a table. Parses and compiles [program] against
    the frame's schema and trains an ensemble on [model_label] if given —
    all outside the registry lock. Raises [Guardrail.Parse.Error] on a bad
    program and [Invalid_argument] on an unknown label column. *)
val load :
  t ->
  name:string ->
  ?program:string ->
  ?model_label:string ->
  Dataframe.Frame.t ->
  entry

(** Install/replace the program of a registered table. Raises [Not_found]
    if the table is absent, [Guardrail.Parse.Error] on a bad program. *)
val set_program : t -> name:string -> string -> entry

val find : t -> string -> entry option
val remove : t -> string -> unit
val count : t -> int

(** {2 Streaming ingest}

    Unlike {!load}/{!set_program} (last-write-wins replacements),
    ingest operations are read-modify-write and run under the shard
    mutex — concurrent ingests of one table serialize, none is lost.
    The frame evolves on its own lineage ([Frame.extend] /
    [Frame.update_cells]), so the entry's ingest state — its group
    cache and statistics — advances over an append delta instead of
    rebuilding. All raise [Not_found] on an unknown table. *)

(** Append rows (same column names) to a registered table. Raises
    [Invalid_argument] on a schema mismatch. *)
val append_rows : t -> name:string -> Dataframe.Frame.t -> entry

(** Apply in-place cell edits [(row, col, value)] to a registered
    table. Downstream statistics recompute (cell edits are not an
    append delta), but drift baselines are kept. *)
val update_cells : t -> name:string -> (int * int * Dataframe.Value.t) list -> entry

type refresh_report = {
  checked : int;          (** statements examined *)
  stale : string list;    (** drift keys flagged before the refresh *)
  refreshed : int;        (** statements re-filled by Alg. 1 *)
  dropped : int;          (** statements with no ε-valid branch left *)
}

(** Re-run the HAVING fill for exactly the statements whose GIVEN set
    the drift monitor flagged stale, splice the results into the
    program (recompiling once), and rebaseline the monitor. [epsilon]
    defaults to [Guardrail.Config.default.epsilon]; the refill keeps
    synthesis' support floor, [Guardrail.Config.min_support].
    Raises [Failure] if the table has no program. *)
val refresh : ?epsilon:float -> t -> name:string -> entry * refresh_report

(** Entries sorted by table name. *)
val list : t -> (string * entry) list
