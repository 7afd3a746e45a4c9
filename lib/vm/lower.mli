(** Lowering pass: rulesets -> predicate bytecode against one frame's
    dictionaries. Wrapped in a [vm.compile] span. *)

(** Largest GIVEN key space a decision table memoizes (same default as
    [Dataframe.Group.default_cap]); larger tables group rows ad hoc. *)
val default_cap : int

(** [lower frame rules] compiles each ruleset to one TABLE op over
    [frame]'s dictionary codes, with an empty key->rule memo when the
    GIVEN cardinality product is at most [cap]. It never reads a rule:
    the cost is O(statements + key space). The result
    [Program.compatible]-executes on [frame] and on any frame sharing
    those dictionaries (row subsets, code-preserving updates). Raises
    [Invalid_argument] if a ruleset references a column [frame] lacks. *)
val lower : ?cap:int -> Dataframe.Frame.t -> Ruleset.t array -> Program.t

(** One conjunct of a row filter over a column: an equality on a raw
    value, or a numeric comparison on the column's float image. *)
type guard =
  | Guard_eq of Dataframe.Value.t
  | Guard_lt of float
  | Guard_le of float
  | Guard_gt of float
  | Guard_ge of float
  | Guard_between of float * float  (** inclusive *)

(** [filter frame guards] lowers a non-empty conjunction of per-column
    guards to a single-statement program; running it with [Exec.run]
    yields (as [any]) the bitmap of rows satisfying every guard. NULLs
    and non-numeric cells fail numeric guards, matching SQL three-valued
    logic; an equality on a value the column has never seen lowers to
    the constant-false program. This is the WHERE-clause prefilter
    behind the SQL execution layer. *)
val filter : Dataframe.Frame.t -> (int * guard) list -> Program.t
