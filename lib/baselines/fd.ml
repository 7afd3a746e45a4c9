(* Functional dependencies and FD-based row-level error detection.

   The FD-discovery baselines (TANE, CTANE, FDX) output dependencies
   X -> A. An FD by itself cannot localize errors (paper §2.2), so — as in
   the paper's evaluation — each discovered FD is operationalized as a
   detector: learn the X-value -> modal-A-value mapping on the clean
   training split, and flag test rows whose A deviates. That detector is
   a GUARDRAIL statement, GIVEN X ON A with one equality branch per
   X-binding seen in training, so every Table 3 column is checked by the
   same [Guardrail.Validator]; a binding never seen in training matches
   no branch and is not flagged (no evidence). *)

module Frame = Dataframe.Frame
module Column = Dataframe.Column
module Group = Dataframe.Group
module Dsl = Guardrail.Dsl

type t = { lhs : int list; rhs : int }

let make ~lhs ~rhs =
  if lhs = [] then invalid_arg "Fd.make: empty lhs";
  if List.mem rhs lhs then invalid_arg "Fd.make: rhs inside lhs";
  { lhs = List.sort_uniq Int.compare lhs; rhs }

let compare a b = Stdlib.compare (a.lhs, a.rhs) (b.lhs, b.rhs)
let equal a b = compare a b = 0

let pp schema ppf fd =
  Fmt.pf ppf "%a -> %s"
    Fmt.(list ~sep:(any ", ") string)
    (List.map (Dataframe.Schema.name schema) fd.lhs)
    (Dataframe.Schema.name schema fd.rhs)

let group_by frame cols =
  let cols = List.map (Frame.column frame) cols in
  Group.make (List.map Column.codes cols) (List.map Column.cardinality cols)
    (Frame.nrows frame)

(* The group-and-mode pass behind every FD and CFD check: per group,
   the most common rhs code (ties go to the lowest code) and how many of
   the group's rows carry it. *)
let modes group frame rhs =
  let col = Frame.column frame rhs in
  let out = Array.make (Group.n_groups group) (0, 0) in
  Group.iter_modes group (Column.codes col) ~card:(Column.cardinality col)
    (fun g _ ~base:_ ~mode ~count -> out.(g) <- (mode, count));
  out

(* Branches over the groups of [group] (rows grouped by [lhs]): group
   [g]'s binding as the condition, the value of rhs [code] as the
   assignment. Atoms and assignments are built once per dictionary
   entry and shared by every branch, so a program with millions of
   branches holds one atom per distinct value. *)
let branches frame group lhs ~rhs =
  let eq_atoms a =
    let col = Frame.column frame a in
    (Column.codes col, Array.map (Dsl.eq a) (Column.dict col))
  in
  let conds = List.map eq_atoms lhs in
  let values =
    Array.map (fun v -> Dsl.Eq v) (Column.dict (Frame.column frame rhs))
  in
  fun g code ->
    let rep = Group.first_row group g in
    Dsl.branch
      ~condition:(List.map (fun (codes, atoms) -> atoms.(codes.(rep))) conds)
      ~assignment:values.(code)

(* g3-style violation count of an FD on a frame: rows that must be removed
   so that every lhs group has a single rhs value. *)
let violation_count frame fd =
  Array.fold_left
    (fun acc (_, hits) -> acc - hits)
    (Frame.nrows frame)
    (modes (group_by frame fd.lhs) frame fd.rhs)

let program train fds =
  Dsl.prog ~schema:(Frame.schema train)
    (List.map
       (fun fd ->
         let group = group_by train fd.lhs in
         let branch = branches train group fd.lhs ~rhs:fd.rhs in
         let branches =
           Array.mapi (fun g (code, _) -> branch g code) (modes group train fd.rhs)
         in
         Dsl.stmt ~given:fd.lhs ~on:fd.rhs ~branches:(Array.to_list branches))
       fds)
