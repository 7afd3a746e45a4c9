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

   Every kernel reads the frame through a selection: output bit [k] is
   the verdict on row [rows.(k)], so a query checks the rows it kept
   without gathering them into a sub-frame. A run without a selection
   is the identity selection through the same loops ([at]).

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

(* A selection: [all] for every row in order, else the ascending rows
   [rows]. Position [k] of a run is row [at sel k]. *)
type selection = { all : bool; rows : int array }

let[@inline] at sel k = if sel.all then k else Array.unsafe_get sel.rows k

let[@inline] eq_bit codes imm sel k bit =
  if Array.unsafe_get codes (at sel k) = imm then bit else 0

let eval_eq codes imm sel dst n =
  let bytes = Bitmap.data dst in
  let full = n lsr 3 in
  for b = 0 to full - 1 do
    let k = b lsl 3 in
    let acc =
      eq_bit codes imm sel k 1
      lor eq_bit codes imm sel (k + 1) 2
      lor eq_bit codes imm sel (k + 2) 4
      lor eq_bit codes imm sel (k + 3) 8
      lor eq_bit codes imm sel (k + 4) 16
      lor eq_bit codes imm sel (k + 5) 32
      lor eq_bit codes imm sel (k + 6) 64
      lor eq_bit codes imm sel (k + 7) 128
    in
    Bytes.unsafe_set bytes b (Char.unsafe_chr acc)
  done;
  if n land 7 <> 0 then begin
    let acc = ref 0 in
    for k = full lsl 3 to n - 1 do
      acc := !acc lor eq_bit codes imm sel k (1 lsl (k land 7))
    done;
    Bytes.unsafe_set bytes full (Char.unsafe_chr !acc)
  end

let[@inline] range_bit codes fvals lo hi sel k bit =
  let v = Array.unsafe_get fvals (Array.unsafe_get codes (at sel k)) in
  if lo <= v && v <= hi then bit else 0

(* Inclusive range over a column's float image; NaN entries (nulls,
   strings) fail both comparisons, so they are never in range. One-sided
   and strict comparisons lower to this kernel with infinite or
   Float.pred/succ-adjusted bounds. *)
let eval_range codes fvals lo hi sel dst n =
  let bytes = Bitmap.data dst in
  let full = n lsr 3 in
  for b = 0 to full - 1 do
    let k = b lsl 3 in
    let acc =
      range_bit codes fvals lo hi sel k 1
      lor range_bit codes fvals lo hi sel (k + 1) 2
      lor range_bit codes fvals lo hi sel (k + 2) 4
      lor range_bit codes fvals lo hi sel (k + 3) 8
      lor range_bit codes fvals lo hi sel (k + 4) 16
      lor range_bit codes fvals lo hi sel (k + 5) 32
      lor range_bit codes fvals lo hi sel (k + 6) 64
      lor range_bit codes fvals lo hi sel (k + 7) 128
    in
    Bytes.unsafe_set bytes b (Char.unsafe_chr acc)
  done;
  if n land 7 <> 0 then begin
    let acc = ref 0 in
    for k = full lsl 3 to n - 1 do
      acc := !acc lor range_bit codes fvals lo hi sel k (1 lsl (k land 7))
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

(* One fused pass over the selected rows, 8 per output byte: the
   mixed-radix key of [kcodes] under [kcards], one [memo] read —
   resolving and storing the entry on the key's first sighting — and the
   ON check. [kcodes] are indexed by row, or by position when [kpos]. *)
let check_rows (tbl : Program.table) frame sel dst n memo ~kpos kcodes kcards =
  let on_codes = Column.codes (Frame.column frame tbl.on) in
  let on_dict = Column.dict (Frame.column frame tbl.on) in
  let bounds = Ruleset.bounds tbl.source in
  let on_fvals = tbl.on_fvals in
  let nk = Array.length kcodes in
  let c0 = kcodes.(0) in
  let c1 = if nk > 1 then kcodes.(1) else c0 in
  let card1 = if nk > 1 then kcards.(1) else 0 in
  let bytes = Bitmap.data dst in
  for b = 0 to ((n + 7) lsr 3) - 1 do
    let lo = b lsl 3 in
    let acc = ref 0 in
    for k = lo to min (lo + 7) (n - 1) do
      let i = at sel k in
      let ki = if kpos then k else i in
      let key =
        if nk = 1 then Array.unsafe_get c0 ki
        else if nk = 2 then (Array.unsafe_get c0 ki * card1) + Array.unsafe_get c1 ki
        else begin
          let key = ref (Array.unsafe_get c0 ki) in
          for j = 1 to nk - 1 do
            key := (!key * kcards.(j)) + Array.unsafe_get kcodes.(j) ki
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
        then acc := !acc lor (1 lsl (k land 7))
      end
    done;
    Bytes.unsafe_set bytes b (Char.unsafe_chr !acc)
  done

let given_codes (tbl : Program.table) frame =
  Array.map (fun c -> Column.codes (Frame.column frame c)) tbl.given

(* A table past the cap has no memo: the selected rows are grouped ad
   hoc (hashed keys) and a run-local memo over the group ids, which are
   indexed by position, resolves each group once. *)
let eval_table (tbl : Program.table) frame sel dst n =
  if Array.length tbl.memo > 0 then
    check_rows tbl frame sel dst n tbl.memo ~kpos:false (given_codes tbl frame)
      tbl.cards
  else begin
    let codes = given_codes tbl frame in
    let codes =
      if sel.all then codes
      else Array.map (fun c -> Column.gather c sel.rows) codes
    in
    let g = Group.make (Array.to_list codes) (Array.to_list tbl.cards) n in
    let ng = Group.n_groups g in
    check_rows tbl frame sel dst n
      (Array.make (max ng 1) unresolved)
      ~kpos:true [| Group.ids g |] [| ng |]
  end

let exec_op (p : Program.t) frame sel n regs op =
  match op with
  | Op.Eq { col; code; dst } ->
    eval_eq (Column.codes (Frame.column frame col)) code sel regs.(dst) n
  | Op.Range { fld; lo; hi; dst } ->
    let f = p.fields.(fld) in
    eval_range (Column.codes (Frame.column frame f.fcol)) f.fvals lo hi sel
      regs.(dst) n
  | Op.And { src; dst } -> Bitmap.and_in regs.(dst) regs.(src)
  | Op.Table { table; dst } ->
    eval_table p.tables.(table) frame sel regs.(dst) n

let run ?rows (p : Program.t) frame =
  if not (Program.compatible p frame) then
    invalid_arg "Vm.Exec.run: frame incompatible with program (stale dictionaries)";
  let sel, n =
    match rows with
    | None -> ({ all = true; rows = [||] }, Frame.nrows frame)
    | Some rows -> ({ all = false; rows }, Array.length rows)
  in
  Obs.Span.with_ "vm.exec"
    ~attrs:(fun () ->
      [ ("rows", string_of_int n); ("ops", string_of_int (Program.n_ops p)) ])
  @@ fun () ->
  let regs = Array.init p.n_regs (fun _ -> Bitmap.create n) in
  Array.iter (exec_op p frame sel n regs) p.ops;
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
