(* The predicate-bytecode instruction set.

   A program is a flat array of these ops, interpreted in order by
   Vm.Exec against the dictionary-code arrays of one frame. Operands
   index two pools carried by the program: bitmap registers (dense
   per-row bitmaps) and lowered decision tables ([tables]).

     EQ    col imm dst     dst[i] := codes(col)[i] = imm
     RANGE fld lo hi dst   dst[i] := lo <= fvals(fld)[codes[i]] <= hi
     AND   src dst         dst &= src
     TABLE tbl dst         decision-table check: dst[i] := 1 iff row i's
                           GIVEN key tuple selects a rule and the row's
                           ON value is not accepted by it

   Every decision-table statement lowers to exactly one TABLE op (see
   Vm.Lower); EQ, RANGE and AND are the conjunctive row-filter forms
   behind the SQL prefilter.

   RANGE is the one float comparison: it reads a float image of the
   column through the program's [fields] pool (fvals is indexed by
   dictionary code and holds Value.to_float of each dictionary entry,
   NaN for nulls and strings, so every comparison on them is false).
   One-sided and strict comparisons lower to it with infinite or
   Float.pred/succ-adjusted bounds. Rows never decode to Value.t. *)

type t =
  | Eq of { col : int; code : int; dst : int }
  | Range of { fld : int; lo : float; hi : float; dst : int }  (* inclusive *)
  | And of { src : int; dst : int }
  | Table of { table : int; dst : int }

let pp ppf = function
  | Eq { col; code; dst } -> Fmt.pf ppf "EQ    c%d #%d -> r%d" col code dst
  | Range { fld; lo; hi; dst } ->
    Fmt.pf ppf "RANGE f%d [%g,%g] -> r%d" fld lo hi dst
  | And { src; dst } -> Fmt.pf ppf "AND   r%d -> r%d" src dst
  | Table { table; dst } -> Fmt.pf ppf "TABLE t%d -> r%d" table dst
