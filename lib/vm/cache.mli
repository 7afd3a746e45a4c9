(** Bytecode cache: the lowered programs of one compiled ruleset array,
    looked up with {!Program.compatible} — by the dictionaries lowering
    resolved literals against, never by frame identity. A frame, its
    row subsets and its code-preserving appends and updates all share
    one lowering. Bounded (least recently used dropped first) and
    thread-safe; counts [vm.cache.hits] (a lowering reused) and
    [vm.cache.misses] (a fresh lowering) in [Obs.Metric.default].

    The cache holds no per-frame state. A reused program brings its
    key->rule memos along, so a hit also reuses every key resolved so
    far. *)

type t

val create : Ruleset.t array -> t

(** A program whose dictionaries the frame still carries, lowered
    against [frame] on a miss. *)
val get : t -> Dataframe.Frame.t -> Program.t
