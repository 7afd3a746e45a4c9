(* The predicate-bytecode instruction set.

   A program is a flat array of these ops, interpreted in order by
   Vm.Exec against the dictionary-code arrays of one frame. Operands
   index three pools carried by the program: bitmap registers (dense
   per-row bitmaps), in-set masks ([sets], one bit per dictionary code
   of some column), and lowered decision tables ([tables]).

     EQ    col imm dst     dst[i] := codes(col)[i] = imm
     NE    col imm dst     dst[i] := codes(col)[i] <> imm
     IN    col set dst     dst[i] := sets(set) contains codes(col)[i]
     RANGE fld lo hi dst   dst[i] := lo <= fvals(fld)[codes[i]] <= hi
     AND   src dst         dst &= src
     OR    src dst         dst |= src
     ANDN  src dst         dst &= ~src
     TABLE tbl dst         decision-table probe: rows are partitioned by
                           the table's GIVEN columns via the Dataframe.Group
                           CSR index; each partition's representative key
                           tuple selects a rule; dst[i] := 1 iff row i's
                           partition has a rule and the row's ON code is
                           not accepted by it

   EQ/NE are the compare-immediate forms, IN the in-set bitmask form;
   together with the connectives they lower small statements without any
   per-row hashing, and TABLE covers the general case by reusing the
   cached group index instead of re-hashing rows.

   RANGE is the one float comparison: it reads a float image of the
   column through the program's [fields] pool (fvals is indexed by
   dictionary code and holds Value.to_float of each dictionary entry,
   NaN for nulls and strings, so every comparison on them is false).
   One-sided and strict comparisons lower to it with infinite or
   Float.pred/succ-adjusted bounds. Rows never decode to Value.t. *)

type t =
  | Eq of { col : int; code : int; dst : int }
  | Ne of { col : int; code : int; dst : int }
  | In of { col : int; set : int; dst : int }
  | Range of { fld : int; lo : float; hi : float; dst : int }  (* inclusive *)
  | And of { src : int; dst : int }
  | Or of { src : int; dst : int }
  | Andn of { src : int; dst : int }
  | Table of { table : int; dst : int }

let pp ppf = function
  | Eq { col; code; dst } -> Fmt.pf ppf "EQ    c%d #%d -> r%d" col code dst
  | Ne { col; code; dst } -> Fmt.pf ppf "NE    c%d #%d -> r%d" col code dst
  | In { col; set; dst } -> Fmt.pf ppf "IN    c%d s%d -> r%d" col set dst
  | Range { fld; lo; hi; dst } ->
    Fmt.pf ppf "RANGE f%d [%g,%g] -> r%d" fld lo hi dst
  | And { src; dst } -> Fmt.pf ppf "AND   r%d -> r%d" src dst
  | Or { src; dst } -> Fmt.pf ppf "OR    r%d -> r%d" src dst
  | Andn { src; dst } -> Fmt.pf ppf "ANDN  r%d -> r%d" src dst
  | Table { table; dst } -> Fmt.pf ppf "TABLE t%d -> r%d" table dst
