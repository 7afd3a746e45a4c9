(** Enumerate the DAGs of a Markov equivalence class given its CPDAG. *)

(** Would orienting [u -> v] create a new unshielded collider? *)
val creates_new_collider : Pdag.t -> int -> int -> bool

(** Would orienting [u -> v] close a directed cycle? *)
val creates_cycle : Pdag.t -> int -> int -> bool

val admissible : Pdag.t -> int -> int -> bool

(** All consistent DAG extensions, capped at [max_dags]; the flag is set
    when the class has more than [max_dags] members. Adds the number of
    Meek closures run to the [pgm.enum.closures] counter of
    {!Obs.Metric.default}. *)
val consistent_extensions : max_dags:int -> Pdag.t -> Dag.t list * bool

(** [(List.length dags, truncated)] of {!consistent_extensions} at the
    same cap, from the same search, without building the DAGs. *)
val count_extensions : max_dags:int -> Pdag.t -> int * bool
