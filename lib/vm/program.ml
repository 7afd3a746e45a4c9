(* A lowered predicate program.

   A decision-table program is one TABLE op per statement. Each table
   carries its GIVEN columns, their cardinalities and, when the
   mixed-radix key space of those cardinalities fits under the lowering
   cap, a key->rule memo: one int per key, filled the first time a row
   with that key is checked (Vm.Exec), never at lowering. So lowering
   costs O(statements + key space) and no work per rule.

   A memo entry is a pure function of the rules and of the dictionaries
   the key codes and the ON codes index. The program records which
   columns it read and the dictionary each had at lowering time;
   [compatible] checks (by physical equality — dictionaries are never
   mutated, only replaced) that a frame still carries those
   dictionaries. So the memo is valid for exactly as long as
   [compatible] holds. A run at a selection of a frame's rows reads that
   frame's own columns, and frames derived by [Frame.take]/
   [Frame.filter]/code-preserving [Frame.set] share dictionaries with
   their parent, so one lowering, and one warm memo, serves every row
   subset of a table, selected or copied.

   The memo is filled without a lock. Every writer of a slot stores the
   same int (the entry is a pure function of the key), and an int store
   is a single word, so a racing reader sees either [unresolved] — and
   resolves the key again — or the final entry. *)

module Column = Dataframe.Column
module Frame = Dataframe.Frame
module Value = Dataframe.Value

(* A column's float image, read by RANGE ops: fvals.(code) =
   Value.to_float dict.(code), NaN when the entry has no float image
   (Null, String). Code arrays stay the only per-row data the VM
   touches. *)
type field = {
  fcol : int;
  fvals : float array;
}

type table = {
  source : Ruleset.t;
  given : int array;        (* column indices, ascending *)
  cards : int array;        (* their cardinalities at lowering *)
  on : int;
  on_fvals : float array;   (* float image of ON; [||] without range rules *)
  memo : int array;         (* mixed-radix key -> entry; [||] past the cap *)
}

(* Every memo slot starts here; Vm.Exec encodes the entries it stores
   (all other values). *)
let unresolved = -1

type t = {
  source : Ruleset.t array;
  ops : Op.t array;
  n_regs : int;
  stmt_reg : int array;            (* stmt -> register holding its violations *)
  tables : table array;            (* stmt -> its decision table *)
  fields : field array;            (* float images for RANGE ops *)
  cols : int array;                (* columns the program reads *)
  dicts : Value.t array array;     (* their dictionaries at lowering *)
}

let source t = t.source
let n_stmts t = Array.length t.source
let n_ops t = Array.length t.ops
let n_tables t = Array.length t.tables

let compatible t frame =
  let ncols = Frame.ncols frame in
  try
    Array.iteri
      (fun j c ->
        if c >= ncols || Column.dict (Frame.column frame c) != t.dicts.(j) then
          raise Exit)
      t.cols;
    true
  with Exit -> false

let pp ppf t =
  Fmt.pf ppf "@[<v>%d stmt(s), %d reg(s), %d table(s)@,%a@]" (n_stmts t)
    t.n_regs (n_tables t)
    Fmt.(iter Array.iter Op.pp)
    t.ops
