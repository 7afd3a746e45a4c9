(* The VM's source IR: a decision table over dictionary-encoded columns.

   One ruleset is one GUARDRAIL statement flattened to value level: rows
   whose [given] columns match a rule's key tuple of atoms are expected
   to satisfy the rule's assignment atom in the [on] column; anything
   else is a violation.

   Keys are [Dataframe.Domain.atom] tuples. Each key position is
   normalized once at construction:

   - all-[Eq] positions probe by structural (hashtable) equality on the
     raw row value — exactly the historical behavior;
   - all-range positions ([Between]/[Le]/[Ge]) collect the distinct
     intervals, which must be pairwise disjoint (bin atoms are), and
     probe by interval index via binary search on the row value's float
     image.

   Mixing equality and range atoms at one position, or overlapping
   intervals, would make "which rule matches" ambiguous and is rejected.
   The assignment check uses [Domain.atom_holds] (numeric-tolerant
   [Value.equal] for [Eq]), again mirroring the row interpreter. The
   lowering pass (Vm.Lower) wraps each ruleset in one TABLE op whose
   memo Vm.Exec fills through [find_by]; [check_row] is the scalar 1-row
   entry point the batch path shares with per-row callers. *)

module Value = Dataframe.Value
module Domain = Dataframe.Domain

type rule = {
  key : Domain.atom array;  (* one atom per GIVEN column, in given order *)
  assignment : Domain.atom;
}

(* Normalized probe behavior of one key position. *)
type position =
  | Pos_eq
      (* every rule tests equality: probe component = the row value *)
  | Pos_ranges of (float * float) array
      (* sorted disjoint inclusive intervals; probe component =
         [Value.Int] of the interval index, [-1] when none contains the
         row value's float image (or it has none) *)

type t = {
  given : int array;        (* column indices, strictly ascending *)
  on : int;                 (* dependent column *)
  rules : rule array;
  positions : position array;
  table : (Value.t array, int) Hashtbl.t;  (* normalized key -> rule index *)
  bounds : float array;
      (* rule i's accepted ON range at 2i, 2i+1 (inclusive); [||] when
         no rule assigns a range *)
}

let interval_of_test = function
  | Domain.Eq _ -> None
  | Domain.Between { lo; hi } -> Some (lo, hi)
  | Domain.Le b -> Some (Float.neg_infinity, b)
  | Domain.Ge b -> Some (b, Float.infinity)

(* Index of the interval containing [x], or -1. Intervals are sorted by
   lower bound and disjoint. *)
let interval_index (ivs : (float * float) array) x =
  let lo = ref 0 and hi = ref (Array.length ivs) in
  (* binary search for the last interval starting at or below x *)
  if Array.length ivs = 0 || not (x >= fst ivs.(0)) then -1
  else begin
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if fst ivs.(mid) <= x then lo := mid else hi := mid
    done;
    if x <= snd ivs.(!lo) then !lo else -1
  end

let make ~given ~on rules =
  let k = Array.length given in
  if k = 0 then invalid_arg "Vm.Ruleset.make: empty GIVEN set";
  for j = 1 to k - 1 do
    if given.(j - 1) >= given.(j) then
      invalid_arg "Vm.Ruleset.make: GIVEN columns must be strictly ascending"
  done;
  if Array.exists (fun g -> g = on) given then
    invalid_arg "Vm.Ruleset.make: dependent column in GIVEN";
  let rules =
    Array.map
      (fun (key, assignment) ->
        if Array.length key <> k then
          invalid_arg "Vm.Ruleset.make: key arity mismatch";
        { key; assignment })
      rules
  in
  let positions =
    Array.init k (fun j ->
        let any_range =
          Array.exists (fun r -> interval_of_test r.key.(j) <> None) rules
        in
        if not any_range then Pos_eq
        else begin
          let ivs = ref [] in
          Array.iter
            (fun r ->
              match interval_of_test r.key.(j) with
              | None ->
                invalid_arg
                  "Vm.Ruleset.make: equality and range atoms mixed at one \
                   key position"
              | Some iv -> if not (List.mem iv !ivs) then ivs := iv :: !ivs)
            rules;
          let ivs = Array.of_list !ivs in
          Array.sort (fun (a, _) (b, _) -> Float.compare a b) ivs;
          for i = 1 to Array.length ivs - 1 do
            if snd ivs.(i - 1) >= fst ivs.(i) then
              invalid_arg "Vm.Ruleset.make: overlapping range atoms"
          done;
          Pos_ranges ivs
        end)
  in
  let normalize_test j (test : Domain.atom) =
    match positions.(j), test with
    | Pos_eq, Domain.Eq v -> v
    | Pos_eq, _ -> assert false
    | Pos_ranges ivs, t ->
      let iv = Option.get (interval_of_test t) in
      let idx = ref (-1) in
      Array.iteri (fun i iv' -> if iv' = iv then idx := i) ivs;
      Value.Int !idx
  in
  (* last rule wins on duplicate (normalized) keys, matching
     Hashtbl.replace in the historical compiled form *)
  let table = Hashtbl.create (max 16 (Array.length rules)) in
  Array.iteri
    (fun i r -> Hashtbl.replace table (Array.mapi normalize_test r.key) i)
    rules;
  let bounds =
    if Array.for_all (fun r -> interval_of_test r.assignment = None) rules
    then [||]
    else begin
      let b = Array.make (2 * Array.length rules) Float.nan in
      Array.iteri
        (fun i r ->
          Option.iter
            (fun (lo, hi) ->
              b.(2 * i) <- lo;
              b.((2 * i) + 1) <- hi)
            (interval_of_test r.assignment))
        rules;
      b
    end
  in
  { given; on; rules; positions; table; bounds }

let given t = t.given
let on t = t.on
let n_rules t = Array.length t.rules
let rule t i = t.rules.(i)
let bounds t = t.bounds

(* Normalized probe key of a row, given its value at each key position. *)
let probe_key t value_at =
  Array.mapi
    (fun j p ->
      match p with
      | Pos_eq -> value_at j
      | Pos_ranges ivs ->
        (match Value.to_float (value_at j) with
         | None -> Value.Int (-1)
         | Some x -> Value.Int (interval_index ivs x)))
    t.positions

let find_by t value_at = Hashtbl.find_opt t.table (probe_key t value_at)

(* Rule matched by a tuple of raw row values for the GIVEN columns. *)
let find t values = find_by t (fun j -> values.(j))

(* Scalar probe of one materialized row: the matched-and-violating rule,
   if any. One key-array allocation per call — the whole of the former
   per-row cost (the row interpreter rebuilt a cons list per statement
   per row). *)
let check_row t (values : Value.t array) =
  match find_by t (fun j -> Array.unsafe_get values t.given.(j)) with
  | None -> None
  | Some i ->
    if Domain.atom_holds t.rules.(i).assignment values.(t.on) then None
    else Some i
