(** Typed metric registry: counters, gauges, fixed-bucket latency
    histograms. Handles are obtained by name (get-or-create) and are
    cheap to update concurrently; re-requesting a name with a
    different kind raises [Invalid_argument]. *)

type counter
type gauge
type histogram
type registry

val create : unit -> registry

(** Process-wide registry for pipeline metrics with no natural owner
    (e.g. the CI-test cache counters). *)
val default : registry

val counter : registry -> string -> counter
val incr : ?by:int -> counter -> unit

(** [count name] increments counter [name] of {!default}, looking it up
    on every call. Pipeline code counts this way rather than holding a
    handle in a global [lazy]: get-or-create is domain-safe, whereas
    two domains forcing one [lazy] at once raise
    [CamlinternalLazy.Undefined]. *)
val count : ?by:int -> string -> unit
val counter_value : counter -> int

val gauge : registry -> string -> gauge
val set : gauge -> float -> unit

(** [set_max g v] raises [g] to [v] if [v] is larger — a lock-free
    high-water mark (e.g. peak queue depth), safe under concurrent
    updates from any domain. *)
val set_max : gauge -> float -> unit

val gauge_value : gauge -> float

(** Upper bucket bounds in seconds: 0.1ms … 1s, log-ish spacing, plus
    an implicit overflow bucket. *)
val default_latency_bounds : float array

(** [histogram reg name] gets or creates a histogram. [bounds] must
    be ascending; observations land in the first bucket with
    [v <= bound], or the trailing overflow bucket. *)
val histogram : ?bounds:float array -> registry -> string -> histogram

val observe : histogram -> float -> unit
val bounds : histogram -> float array

type histogram_snapshot = {
  name : string;
  bounds : float array;
  counts : int array;          (** length = [Array.length bounds + 1] *)
  total : int;
  sum : float;
  max_value : float;
}

type snapshot = {
  counters : (string * int) list;    (** sorted by name *)
  gauges : (string * float) list;    (** sorted by name *)
  histograms : histogram_snapshot list;  (** sorted by name *)
}

(** Consistent point-in-time copy of every metric. *)
val snapshot : registry -> snapshot

(** Drop all metrics (handles created before [clear] keep updating
    their now-unregistered cells; intended for tests). *)
val clear : registry -> unit
