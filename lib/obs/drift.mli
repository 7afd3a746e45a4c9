(** Drift monitor: keyed baseline-vs-current scalar tracking.

    Producers record a baseline per key (a violation rate, a
    normalized CI statistic), keep observing the current value, and
    the monitor flags keys whose current value moved past
    [abs_threshold + rel_threshold * |baseline|]. Deliberately
    generic: what a key denotes and what to do about a stale one is
    the caller's business. Thread-safe. *)

type status = Fresh | Stale

type reading = {
  key : string;
  baseline : float;
  current : float;
  shift : float;  (** [|current - baseline|] *)
  status : status;
}

type t

val default_abs_threshold : float
(** 0.02 *)

val default_rel_threshold : float
(** 0.25 *)

(** Raises [Invalid_argument] on a negative threshold. *)
val create : ?abs_threshold:float -> ?rel_threshold:float -> unit -> t

(** Sets both baseline and current for the key (creating it if new). *)
val set_baseline : t -> string -> float -> unit

(** Updates the key's current value (baseline 0 if never set). *)
val observe : t -> string -> float -> unit

(** [Fresh] for unknown keys. *)
val status : t -> string -> status

(** All keys in [set_baseline]/[observe] first-touch order. *)
val readings : t -> reading list

(** Keys currently flagged [Stale], in first-touch order. *)
val stale : t -> string list

val length : t -> int
val pp_status : Format.formatter -> status -> unit
val pp : Format.formatter -> t -> unit
