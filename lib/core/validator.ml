(* Runtime guardrail: check rows against a synthesized program and handle
   violations with the paper's four strategies (§7):

     raise   - abort on the first violation,
     ignore  - report but leave the data untouched,
     coerce  - blank the offending dependent cell (NaN/NULL semantics),
     rectify - overwrite it with the value the program entails.

   The rectify strategy is the one that repairs ML-integrated queries in
   the evaluation (RQ2).

   Compilation goes through lib/vm: each statement becomes a
   [Vm.Ruleset] (a decision table at value level), and frame-granular
   entry points lower those rulesets to one TABLE op per statement,
   executed over the frame's dictionary-code arrays into per-row
   violation bitmaps. Lowered programs are cached by dictionary set in a
   [Vm.Cache] carried by the compilation, so a daemon table, its appends
   and a query's row selections all run one lowering — and share its
   key->rule memos, so a warm check does no grouping and no probe.
   [violations] reads each violating row's rule back from the same memo.
   [violations] and [handle] take an optional selection of rows: they
   check those rows in place, number violations by position in the
   selection (as if the rows had been gathered first), and repair the
   frame at the table rows the positions stand for.

   The scalar path ({!check_values}) is a 1-row call into the VM's
   value-level probe: one key-array allocation per statement, no per-row
   list rebuilding.

   The row-at-a-time reference the differential suite and `bench
   validate` compare the VM against lives in the test-only oracle
   library, built on {!check_values}.

   Every checking entry point takes the *compiled* program: callers
   compile once with {!compile} and reuse the compilation across rows,
   frames and requests. There is deliberately no prog-taking shortcut —
   the old one-shot variants hid a full re-compile per call and turned
   the serving path quadratic. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Domain = Dataframe.Domain

type violation = {
  row : int;
  stmt : Dsl.stmt;
  branch : Dsl.branch;
  actual : Value.t;     (* offending value of the dependent attribute *)
  expected : Value.t;   (* the rectified value: the branch's literal for
                           equality assignments, the actual clamped into
                           the accepted window for range assignments *)
}

type strategy = Raise | Ignore | Coerce | Rectify

exception Violation_error of string

let strategy_of_string = function
  | "raise" -> Some Raise
  | "ignore" -> Some Ignore
  | "coerce" -> Some Coerce
  | "rectify" -> Some Rectify
  | _ -> None

let strategy_to_string = function
  | Raise -> "raise"
  | Ignore -> "ignore"
  | Coerce -> "coerce"
  | Rectify -> "rectify"

type compiled = {
  prog : Dsl.prog;
  stmts : Dsl.stmt array;
  branches : Dsl.branch array array;  (* parallel to each ruleset's rules *)
  rules : Vm.Ruleset.t array;         (* one per statement *)
  cache : Vm.Cache.t;                 (* lowered bytecode, per dictionary set *)
}

let compile (p : Dsl.prog) =
  let stmts = Array.of_list p.Dsl.stmts in
  let branches =
    Array.map
      (fun (s : Dsl.stmt) ->
        let k = List.length s.Dsl.given in
        (* a branch whose condition covers only part of GIVEN can never
           match a full determinant tuple; dropping it here keeps rule
           indices aligned with the branch array *)
        Array.of_list
          (List.filter
             (fun (b : Dsl.branch) -> List.length b.Dsl.condition = k)
             s.Dsl.branches))
      stmts
  in
  let rules =
    Array.mapi
      (fun i (s : Dsl.stmt) ->
        Vm.Ruleset.make
          ~given:(Array.of_list s.Dsl.given)
          ~on:s.Dsl.on
          (Array.map
             (fun (b : Dsl.branch) ->
               (* conditions are sorted by attribute, matching [given] *)
               ( Array.of_list
                   (List.map (fun { Dsl.test; _ } -> test) b.Dsl.condition),
                 b.Dsl.assignment ))
             branches.(i)))
      stmts
  in
  { prog = p; stmts; branches; rules; cache = Vm.Cache.create rules }

let source (c : compiled) = c.prog

let make_violation c ~row ~stmt:s ~rule:r actual =
  let branch = c.branches.(s).(r) in
  {
    row;
    stmt = c.stmts.(s);
    branch;
    actual;
    expected = Domain.rectify branch.Dsl.assignment actual;
  }

(* Violations of one materialized row: the scalar 1-row VM entry. *)
let check_values (c : compiled) values =
  List.map
    (fun (s, r) ->
      make_violation c ~row:(-1) ~stmt:s ~rule:r values.(c.stmts.(s).Dsl.on))
    (Vm.Exec.check_values c.rules values)

(* The frame's lowered bytecode, reused across frames that share its
   dictionaries. *)
let bytecode (c : compiled) frame = Vm.Cache.get c.cache frame

(* Per-row violation bitmap — the batch detector output. *)
let detect_bitmap (c : compiled) frame =
  (Vm.Exec.run (bytecode c frame) frame).Vm.Exec.any

(* The table row at a selection position. *)
let row_at = function None -> Fun.id | Some rows -> Array.get rows

(* All violations over a frame's selection [rows] (every row when
   absent): positions ascending, and within a row statements in program
   order — exactly the order the row-at-a-time path produced over the
   gathered rows. A violation's [row] is its position in the selection,
   so it is numbered as it would be in [Frame.take frame rows]. The
   matched rule of each (violating row, statement) is read back from the
   statement table's memo, which the run has just filled for that row's
   key. *)
let violations ?rows (c : compiled) frame =
  let p = bytecode c frame in
  let v = Vm.Exec.run ?rows p frame in
  let row_at = row_at rows in
  let acc = ref [] in
  Vm.Bitmap.iteri_set v.Vm.Exec.any (fun k ->
      let row = row_at k in
      for s = 0 to Array.length c.stmts - 1 do
        if Vm.Bitmap.get v.Vm.Exec.per_stmt.(s) k then
          match Vm.Exec.rule p ~stmt:s frame row with
          | Some r ->
            acc :=
              make_violation c ~row:k ~stmt:s ~rule:r
                (Frame.get frame row c.stmts.(s).Dsl.on)
              :: !acc
          | None ->
            (* the run flagged this row through the same entry *)
            assert false
      done);
  List.rev !acc

(* Per-row violation flags: the detector output scored in Table 3. *)
let detect (c : compiled) frame =
  let any = detect_bitmap c frame in
  let flags = Array.make (Vm.Bitmap.length any) false in
  Vm.Bitmap.iteri_set any (fun i -> flags.(i) <- true);
  flags

let describe schema v =
  Fmt.str "row %d: %s = %a violates [%a] (rectified %a)" v.row
    (Dataframe.Schema.name schema v.stmt.Dsl.on)
    Value.pp v.actual
    (Pretty.pp_branch schema v.stmt.Dsl.on)
    v.branch Value.pp v.expected

(* Apply a handling strategy to the selection [rows] (every row when
   absent). Returns the (possibly repaired) frame — the whole frame,
   with the selected rows' offending cells replaced — plus the
   violations found, numbered by position in the selection. *)
let handle ?rows ?(strategy = Ignore) (c : compiled) frame =
  let vs = violations ?rows c frame in
  match strategy with
  | Ignore -> (frame, vs)
  | Raise ->
    (match vs with
     | [] -> (frame, [])
     | v :: _ -> raise (Violation_error (describe (Frame.schema frame) v)))
  | Coerce | Rectify ->
    (* each position's repair goes to the table row it stands for *)
    let row_at = row_at rows in
    let cell v = if strategy = Coerce then Value.Null else v.expected in
    ( Frame.set_cells frame
        (List.map (fun v -> (row_at v.row, v.stmt.Dsl.on, cell v)) vs),
      vs )

(* Re-resolve a program's attribute indices by name against another
   schema, so constraints synthesized on a training split can be applied
   to any frame with the same column names. *)
let rebind (p : Dsl.prog) schema =
  let old = p.Dsl.schema in
  let map i = Dataframe.Schema.index schema (Dataframe.Schema.name old i) in
  let map_branch (b : Dsl.branch) =
    Dsl.branch
      ~condition:
        (List.map
           (fun { Dsl.attr; test } -> { Dsl.attr = map attr; test })
           b.Dsl.condition)
      ~assignment:b.Dsl.assignment
  in
  let stmts =
    List.map
      (fun (s : Dsl.stmt) ->
        Dsl.stmt ~given:(List.map map s.Dsl.given) ~on:(map s.Dsl.on)
          ~branches:(List.map map_branch s.Dsl.branches))
      p.Dsl.stmts
  in
  Dsl.prog ~schema stmts
