(** The PC structure-learning algorithm, stable-PC schedule: each
    conditioning-set level snapshots the adjacency structure, tests every
    surviving edge against the snapshot, and applies removals at the
    round barrier. The result is independent of edge order — and of the
    worker count when the level's CI tests fan out over [pool]. *)

type sepsets = (int * int, int list) Hashtbl.t

val sepset_key : int -> int -> int * int
val find_sepset : sepsets -> int -> int -> int list option

(** All subsets of the given size, preserving element order. *)
val subsets_of_size : int -> 'a list -> 'a list list

(** Skeleton phase: [indep i j cond] is the conditional-independence
    oracle. [max_cond] bounds the conditioning-set size. With [pool],
    each level's CI tests run across the pool's domains (the oracle must
    be pure on shared state); the skeleton and separating sets are
    identical at every pool size. *)
val skeleton :
  n:int ->
  max_cond:int ->
  ?pool:Runtime.Pool.t ->
  (int -> int -> int list -> bool) ->
  Pdag.t * sepsets

(** Orient unshielded colliders given separating sets. Mutates the graph. *)
val orient_v_structures : Pdag.t -> sepsets -> unit

(** Full PC: skeleton, v-structures, Meek closure. Returns the CPDAG and
    the separating sets. *)
val cpdag :
  n:int ->
  max_cond:int ->
  ?pool:Runtime.Pool.t ->
  (int -> int -> int list -> bool) ->
  Pdag.t * sepsets
