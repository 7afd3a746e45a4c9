(* The branch-light interpreter.

   Registers are dense row bitmaps. EQ and RANGE scan one code array and
   emit 8 verdict bits per output byte; AND runs word-wise in Bitmap.

   A TABLE op with a memo runs one fused pass per row: the mixed-radix
   key of the GIVEN codes, one read of the table's key->rule memo, and a
   compare of the ON code against the rule's entry. A key's first
   sighting resolves it through [Ruleset.find_by] at value level and
   stores the entry, so once every key of a frame family has been seen
   a run does no grouping, no hashing and no probe. The memo is written
   without a lock: racing writers store the same int (see Program), so a
   race costs at most a repeated probe. A table past the lowering cap
   has no memo: its rows are grouped ad hoc (Dataframe.Group, hashed
   keys) and each group probes once.

   Execution is wrapped in a [vm.exec] span and bumps the
   [vm.rows.validated] counter. *)

module Column = Dataframe.Column
module Frame = Dataframe.Frame
module Group = Dataframe.Group
module Value = Dataframe.Value
module Domain = Dataframe.Domain

type verdicts = { n : int; any : Bitmap.t; per_stmt : Bitmap.t array }

(* Memo entries (Program.table.memo). Besides [unresolved] and [no_rule],
   an entry packs the matched rule's index above bit 32 and, below it,
   how the row's ON code is checked:
     0        the rule's equality literal is tested on the ON value (it
              aliases several dictionary entries, e.g. Int 1 and Float 1.0,
              or none, so every matched row violates);
     1        the ON code's float image is tested against the rule's range;
     c + 2    exactly ON code c is accepted (the common case).
   Defined here rather than in Program so the row loop inlines them. *)
let unresolved = Program.unresolved
let no_rule = -2
let check_literal = 0
let check_range = 1
let check_code c = c + 2
let entry ~rule ~check = (rule lsl 32) lor check
let entry_rule e = e lsr 32
let entry_check e = e land 0xFFFF_FFFF

let eval_eq codes imm dst n =
  let bytes = Bitmap.data dst in
  let full = n lsr 3 in
  for b = 0 to full - 1 do
    let i = b lsl 3 in
    let acc =
      (if Array.unsafe_get codes i = imm then 1 else 0)
      lor (if Array.unsafe_get codes (i + 1) = imm then 2 else 0)
      lor (if Array.unsafe_get codes (i + 2) = imm then 4 else 0)
      lor (if Array.unsafe_get codes (i + 3) = imm then 8 else 0)
      lor (if Array.unsafe_get codes (i + 4) = imm then 16 else 0)
      lor (if Array.unsafe_get codes (i + 5) = imm then 32 else 0)
      lor (if Array.unsafe_get codes (i + 6) = imm then 64 else 0)
      lor (if Array.unsafe_get codes (i + 7) = imm then 128 else 0)
    in
    Bytes.unsafe_set bytes b (Char.unsafe_chr acc)
  done;
  if n land 7 <> 0 then begin
    let acc = ref 0 in
    for i = full lsl 3 to n - 1 do
      if Array.unsafe_get codes i = imm then acc := !acc lor (1 lsl (i land 7))
    done;
    Bytes.unsafe_set bytes full (Char.unsafe_chr !acc)
  end

(* Inclusive range over a column's float image; NaN entries (nulls,
   strings) fail both comparisons, so they are never in range. One-sided
   and strict comparisons lower to this kernel with infinite or
   Float.pred/succ-adjusted bounds. *)
let eval_range codes fvals lo hi dst n =
  let bytes = Bitmap.data dst in
  let full = n lsr 3 in
  for b = 0 to full - 1 do
    let i = b lsl 3 in
    let tst k =
      let v = Array.unsafe_get fvals (Array.unsafe_get codes (i + k)) in
      lo <= v && v <= hi
    in
    let acc =
      (if tst 0 then 1 else 0)
      lor (if tst 1 then 2 else 0)
      lor (if tst 2 then 4 else 0)
      lor (if tst 3 then 8 else 0)
      lor (if tst 4 then 16 else 0)
      lor (if tst 5 then 32 else 0)
      lor (if tst 6 then 64 else 0)
      lor (if tst 7 then 128 else 0)
    in
    Bytes.unsafe_set bytes b (Char.unsafe_chr acc)
  done;
  if n land 7 <> 0 then begin
    let acc = ref 0 in
    for i = full lsl 3 to n - 1 do
      let v = Array.unsafe_get fvals (Array.unsafe_get codes i) in
      if lo <= v && v <= hi then acc := !acc lor (1 lsl (i land 7))
    done;
    Bytes.unsafe_set bytes full (Char.unsafe_chr !acc)
  end

(* Memo entry of a rule: the rule index plus how its assignment checks
   the ON code. An equality literal usually matches one dictionary entry
   and is checked by code. One that matches none, or several —
   Value.equal aliases an Int with the Float of the same value, so an
   Int/Float pair in the dictionary, or an integral float too large to
   name one Int — is tested on the value. A range assignment is tested
   on the ON code's float image. *)
let entry_of_rule (tbl : Program.table) frame r =
  let on_col = Frame.column frame tbl.on in
  let code v = Column.code_of_value on_col v in
  let one = function None -> check_literal | Some c -> check_code c in
  let pair a b =
    match code a, code b with
    | c, None | None, c -> one c
    | Some _, Some _ -> check_literal
  in
  let check =
    match (Ruleset.rule tbl.source r).Ruleset.assignment with
    | Domain.Eq (Value.Int i as v) -> pair v (Value.Float (float_of_int i))
    | Domain.Eq (Value.Float f as v) when Float.is_integer f ->
      if Float.abs f < 0x1p53 then pair v (Value.Int (int_of_float f))
      else check_literal
    | Domain.Eq v -> one (code v)
    | Domain.Between _ | Domain.Le _ | Domain.Ge _ -> check_range
  in
  entry ~rule:r ~check

(* Memo entry of row [row]'s key: one value-level probe. Rows sharing
   their GIVEN codes share their values, hence their rule. *)
let resolve (tbl : Program.table) frame row =
  match
    Ruleset.find_by tbl.source (fun j -> Frame.get frame row tbl.given.(j))
  with
  | Some r -> entry_of_rule tbl frame r
  | None -> no_rule

(* The rare check of a row whose key resolved to rule entry [e]: the
   rule's literal tested on the row's ON value. *)
let literal_fails (tbl : Program.table) on_dict e oc =
  not
    (Domain.atom_holds
       (Ruleset.rule tbl.source (entry_rule e)).Ruleset.assignment
       (Array.unsafe_get on_dict oc))

(* One fused pass over the rows, 8 per output byte: the mixed-radix key
   of [kcodes] under [kcards], one [memo] read — resolving and storing
   the entry on the key's first sighting — and the ON check. *)
let check_rows (tbl : Program.table) frame dst n memo kcodes kcards =
  let on_codes = Column.codes (Frame.column frame tbl.on) in
  let on_dict = Column.dict (Frame.column frame tbl.on) in
  let bounds = Ruleset.bounds tbl.source in
  let on_fvals = tbl.on_fvals in
  let k = Array.length kcodes in
  let c0 = kcodes.(0) in
  let c1 = if k > 1 then kcodes.(1) else c0 in
  let card1 = if k > 1 then kcards.(1) else 0 in
  let bytes = Bitmap.data dst in
  for b = 0 to ((n + 7) lsr 3) - 1 do
    let lo = b lsl 3 in
    let acc = ref 0 in
    for i = lo to min (lo + 7) (n - 1) do
      let key =
        if k = 1 then Array.unsafe_get c0 i
        else if k = 2 then (Array.unsafe_get c0 i * card1) + Array.unsafe_get c1 i
        else begin
          let key = ref (Array.unsafe_get c0 i) in
          for j = 1 to k - 1 do
            key := (!key * kcards.(j)) + Array.unsafe_get kcodes.(j) i
          done;
          !key
        end
      in
      let e = Array.unsafe_get memo key in
      let e =
        if e <> unresolved then e
        else begin
          let e = resolve tbl frame i in
          Array.unsafe_set memo key e;
          e
        end
      in
      if e >= 0 then begin
        (* check the ON code: by code, by float image against the
           rule's range, or by value *)
        let oc = Array.unsafe_get on_codes i in
        let check = entry_check e in
        if
          if check >= check_code 0 then check <> check_code oc
          else if check = check_range then begin
            let r2 = 2 * entry_rule e in
            let v = Array.unsafe_get on_fvals oc in
            not
              (Array.unsafe_get bounds r2 <= v
              && v <= Array.unsafe_get bounds (r2 + 1))
          end
          else literal_fails tbl on_dict e oc
        then acc := !acc lor (1 lsl (i land 7))
      end
    done;
    Bytes.unsafe_set bytes b (Char.unsafe_chr !acc)
  done

let given_codes (tbl : Program.table) frame =
  Array.map (fun c -> Column.codes (Frame.column frame c)) tbl.given

(* A table past the cap has no memo: its rows are grouped ad hoc
   (hashed keys) and a run-local memo over the group ids resolves each
   group once. *)
let eval_table (tbl : Program.table) frame dst n =
  if Array.length tbl.memo > 0 then
    check_rows tbl frame dst n tbl.memo (given_codes tbl frame) tbl.cards
  else begin
    let g =
      Group.make
        (Array.to_list (given_codes tbl frame))
        (Array.to_list tbl.cards) n
    in
    let ng = Group.n_groups g in
    check_rows tbl frame dst n
      (Array.make (max ng 1) unresolved)
      [| Group.ids g |] [| ng |]
  end

let exec_op (p : Program.t) frame n regs op =
  match op with
  | Op.Eq { col; code; dst } ->
    eval_eq (Column.codes (Frame.column frame col)) code regs.(dst) n
  | Op.Range { fld; lo; hi; dst } ->
    let f = p.fields.(fld) in
    eval_range (Column.codes (Frame.column frame f.fcol)) f.fvals lo hi
      regs.(dst) n
  | Op.And { src; dst } -> Bitmap.and_in regs.(dst) regs.(src)
  | Op.Table { table; dst } -> eval_table p.tables.(table) frame regs.(dst) n

let run (p : Program.t) frame =
  if not (Program.compatible p frame) then
    invalid_arg "Vm.Exec.run: frame incompatible with program (stale dictionaries)";
  let n = Frame.nrows frame in
  Obs.Span.with_ "vm.exec"
    ~attrs:(fun () ->
      [ ("rows", string_of_int n); ("ops", string_of_int (Program.n_ops p)) ])
  @@ fun () ->
  let regs = Array.init p.n_regs (fun _ -> Bitmap.create n) in
  Array.iter (exec_op p frame n regs) p.ops;
  let per_stmt = Array.map (fun r -> regs.(r)) p.stmt_reg in
  let any = Bitmap.create n in
  Array.iter (fun bm -> Bitmap.or_in any bm) per_stmt;
  Obs.Metric.count ~by:n "vm.rows.validated";
  { n; any; per_stmt }

(* The rule statement [stmt] matches at [row]: the table's memo entry
   for the row's key (warm after [run]), else a value-level probe. *)
let rule (p : Program.t) ~stmt frame row =
  let tbl = p.tables.(stmt) in
  let e =
    if Array.length tbl.memo = 0 then resolve tbl frame row
    else begin
      let k = ref 0 in
      for j = 0 to Array.length tbl.given - 1 do
        k := (!k * tbl.cards.(j)) + Column.code (Frame.column frame tbl.given.(j)) row
      done;
      match tbl.memo.(!k) with
      | e when e = unresolved ->
        let e = resolve tbl frame row in
        tbl.memo.(!k) <- e;
        e
      | e -> e
    end
  in
  if e >= 0 then Some (entry_rule e) else None

(* Scalar path: the 1-row entry point. One key-array allocation per
   statement, no per-row list building. *)
let check_values (rules : Ruleset.t array) values =
  let acc = ref [] in
  for s = Array.length rules - 1 downto 0 do
    match Ruleset.check_row rules.(s) values with
    | Some r -> acc := (s, r) :: !acc
    | None -> ()
  done;
  !acc
