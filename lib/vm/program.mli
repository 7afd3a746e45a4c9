(** A lowered predicate program: flat bytecode plus the decision tables
    and float images it indexes, with every code resolved against the
    dictionaries of one frame. *)

(** A column's float image: [fvals.(code) = Value.to_float dict.(code)],
    NaN for entries with no float image. *)
type field = {
  fcol : int;
  fvals : float array;
}

(** One statement's decision table. [memo] maps the mixed-radix key of
    the GIVEN codes (under [cards]) to a memo entry; it is empty when
    the key space exceeded the lowering cap, and such a table groups
    its rows ad hoc on every run. [on_fvals] is the ON column's float
    image when some rule assigns a range, else empty. *)
type table = {
  source : Ruleset.t;
  given : int array;
  cards : int array;
  on : int;
  on_fvals : float array;
  memo : int array;
}

(** The value of a memo slot whose key has not been seen yet; every
    slot starts here. {!Exec} encodes the resolved entries. *)
val unresolved : int

type t = {
  source : Ruleset.t array;
  ops : Op.t array;
  n_regs : int;
  stmt_reg : int array;
  tables : table array;
  fields : field array;
  cols : int array;
  dicts : Dataframe.Value.t array array;
}

val source : t -> Ruleset.t array
val n_stmts : t -> int
val n_ops : t -> int
val n_tables : t -> int

(** Does the frame still carry (physically) the dictionaries this
    program was lowered against? Row subsets made with
    [Frame.take]/[Frame.filter] share dictionaries and stay
    compatible. The tables' memos are valid exactly as long as this
    holds. *)
val compatible : t -> Dataframe.Frame.t -> bool

(** Disassembly, for debugging and tests. *)
val pp : Format.formatter -> t -> unit
