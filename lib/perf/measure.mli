(** Stable measurement: monotonic clock, warmup discard, min-of-N.

    Wall-clock timing on a shared machine is noisy in one direction
    only — interference makes a run slower, never faster — so the
    minimum over N repetitions is the stable estimator this harness
    standardises on (the median and max are kept alongside). The
    clock is CLOCK_MONOTONIC (bechamel's stub), immune to NTP steps;
    [Gc.compact] between repetitions keeps one rep's garbage from
    being charged to the next. Every time it measures is trend only:
    the regression gate compares work counts, not times. *)

(** Monotonic now, in seconds. Only differences are meaningful. *)
val now_s : unit -> float

(** [time1 f] runs [f ()] once and returns its result and monotonic
    wall seconds. *)
val time1 : (unit -> 'a) -> 'a * float

type sample = {
  min_s : float;     (** the estimator: fastest repetition *)
  median_s : float;
  max_s : float;
  reps : int;        (** scored repetitions (warmup excluded) *)
}

(** [run ~warmup ~reps ~inner f] executes [f] [warmup] unscored
    times, then [reps] scored repetitions, compacting the heap before
    each scored repetition unless [gc_compact:false]. Each repetition
    times [inner] back-to-back calls and reports per-call seconds —
    raise [inner] for sub-microsecond operations that would otherwise
    drown in clock-read overhead. [reps] and [inner] are clamped to
    >= 1. *)
val run :
  ?warmup:int -> ?reps:int -> ?inner:int -> ?gc_compact:bool ->
  (unit -> 'a) -> sample
