(** The one result schema every benchmark suite emits.

    A {!metric} is a single measured number plus its gate policy: a
    gated metric must equal its baseline exactly (deterministic work
    counts), an ungated one is trend only (wall times). A {!run}
    bundles one harness invocation's metrics with the repo revision. *)

type direction = Higher_better | Lower_better

type metric = {
  suite : string;        (** e.g. ["validate"] *)
  workload : string;     (** e.g. ["rows=50000"] *)
  name : string;         (** e.g. ["vm.cache.misses"] *)
  value : float;
  unit_ : string;        (** ["s"], ["n"], ["req/s"], ["cov"], ... *)
  direction : direction; (** which way is better, for the trend report *)
  gated : bool;          (** must equal the baseline exactly *)
}

(** Smart constructor; defaults: [Lower_better] (a time), ungated. *)
val metric :
  suite:string ->
  workload:string ->
  name:string ->
  value:float ->
  unit_:string ->
  ?direction:direction ->
  ?gated:bool ->
  unit ->
  metric

(** ["suite/workload/name"] — the identity used to align runs. *)
val key : metric -> string

type run = {
  schema_version : int;
  rev : string;           (** repo revision the run measured *)
  unix_time : float;      (** seconds since epoch, for the report *)
  results : metric list;
}

val schema_version : int

val make_run : rev:string -> unix_time:float -> metric list -> run

(** Current repo revision: [$GUARDRAIL_BENCH_REV], else
    [git rev-parse --short HEAD], else ["unknown"]. *)
val current_rev : unit -> string

val run_to_json : run -> Obs.Json.t

(** Parses lines written by {!run_to_json}, and older lines that also
    carry [fingerprint], [tolerance] and [bound] fields (ignored), so
    the whole history keeps rendering. *)
val run_of_json : Obs.Json.t -> (run, string) result
