(** Partially directed graphs (CPDAG representation). Mutable: clone with
    {!copy} before branching.

    Each node has three bit-set rows of [words] ints: its children, its
    parents and its undirected neighbours. Node [j] is bit [j mod 62] of
    word [j / 62] of a row, as in {!Stat.Bits}, and row [x] of a kind
    starts at index [x * words] of that kind's array. [parents] mirrors
    [children], [undirected] is symmetric, no row holds its own node, and
    bits past the last node are zero. The rows are exposed so that
    {!Meek} and {!Enumerate} can read whole words; every change goes
    through the functions below. *)

type t = private {
  n : int;
  words : int;  (** words per row: ⌈n / 62⌉ *)
  children : int array;
  parents : int array;
  undirected : int array;
}

val create : int -> t
val size : t -> int
val copy : t -> t

val has_directed : t -> int -> int -> bool
val has_undirected : t -> int -> int -> bool
val adjacent : t -> int -> int -> bool

(** Raises [Invalid_argument] on self loops. *)
val add_undirected : t -> int -> int -> unit

(** Remove any edge (directed or not) between two nodes. *)
val remove_edge : t -> int -> int -> unit

(** Turn the edge between [u] and [v] into [u -> v]. Raises
    [Invalid_argument] on self loops. *)
val orient : t -> int -> int -> unit

(** Complete undirected graph on [n] nodes (PC's starting point). *)
val complete : int -> t

(** [node k m] is the least node of the non-zero mask [m], taken as word
    [k] of a row. *)
val node : int -> int -> int

(** [mask x k] is node [x] as a mask over word [k] of a row: one bit, or
    0 when [x] lies in another word. *)
val mask : int -> int -> int

val neighbors : t -> int -> int list
val undirected_neighbors : t -> int -> int list
val parents : t -> int -> int list
val children : t -> int -> int list
val directed_edges : t -> (int * int) list

(** Each undirected edge once, as [(min, max)]. *)
val undirected_edges : t -> (int * int) list

(** The head of {!undirected_edges}, without building the list. *)
val first_undirected : t -> (int * int) option

val fully_directed : t -> bool

(** No directed cycle (undirected edges are ignored). *)
val acyclic : t -> bool

(** [Some dag] when fully directed and acyclic. *)
val to_dag : t -> Dag.t option

(** Reachability along directed edges only. *)
val directed_reaches : t -> int -> int -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
