(* The branch-light interpreter.

   Registers are dense row bitmaps; compare/in ops scan one code array
   and emit 8 verdict bits per output byte, connectives run word-wise
   in Bitmap, and TABLE ops partition rows through the Dataframe.Group
   CSR index (the caller's group cache when it passes one), probing the
   rule key once per partition rather than once per row. Execution is
   wrapped in a [vm.exec] span and bumps the [vm.rows.validated]
   counter. *)

module Column = Dataframe.Column
module Frame = Dataframe.Frame
module Group = Dataframe.Group

type verdicts = { n : int; any : Bitmap.t; per_stmt : Bitmap.t array }

(* no-rule marker in the per-group expect array *)
let no_rule = min_int

let in_set set c =
  Char.code (Bytes.unsafe_get set (c lsr 3)) land (1 lsl (c land 7)) <> 0

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

let eval_ne codes imm dst n =
  let bytes = Bitmap.data dst in
  let full = n lsr 3 in
  for b = 0 to full - 1 do
    let i = b lsl 3 in
    let acc =
      (if Array.unsafe_get codes i <> imm then 1 else 0)
      lor (if Array.unsafe_get codes (i + 1) <> imm then 2 else 0)
      lor (if Array.unsafe_get codes (i + 2) <> imm then 4 else 0)
      lor (if Array.unsafe_get codes (i + 3) <> imm then 8 else 0)
      lor (if Array.unsafe_get codes (i + 4) <> imm then 16 else 0)
      lor (if Array.unsafe_get codes (i + 5) <> imm then 32 else 0)
      lor (if Array.unsafe_get codes (i + 6) <> imm then 64 else 0)
      lor (if Array.unsafe_get codes (i + 7) <> imm then 128 else 0)
    in
    Bytes.unsafe_set bytes b (Char.unsafe_chr acc)
  done;
  if n land 7 <> 0 then begin
    let acc = ref 0 in
    for i = full lsl 3 to n - 1 do
      if Array.unsafe_get codes i <> imm then acc := !acc lor (1 lsl (i land 7))
    done;
    Bytes.unsafe_set bytes full (Char.unsafe_chr !acc)
  end

let eval_in codes set dst n =
  let bytes = Bitmap.data dst in
  let full = n lsr 3 in
  for b = 0 to full - 1 do
    let i = b lsl 3 in
    let acc =
      (if in_set set (Array.unsafe_get codes i) then 1 else 0)
      lor (if in_set set (Array.unsafe_get codes (i + 1)) then 2 else 0)
      lor (if in_set set (Array.unsafe_get codes (i + 2)) then 4 else 0)
      lor (if in_set set (Array.unsafe_get codes (i + 3)) then 8 else 0)
      lor (if in_set set (Array.unsafe_get codes (i + 4)) then 16 else 0)
      lor (if in_set set (Array.unsafe_get codes (i + 5)) then 32 else 0)
      lor (if in_set set (Array.unsafe_get codes (i + 6)) then 64 else 0)
      lor (if in_set set (Array.unsafe_get codes (i + 7)) then 128 else 0)
    in
    Bytes.unsafe_set bytes b (Char.unsafe_chr acc)
  done;
  if n land 7 <> 0 then begin
    let acc = ref 0 in
    for i = full lsl 3 to n - 1 do
      if in_set set (Array.unsafe_get codes i) then
        acc := !acc lor (1 lsl (i land 7))
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

(* Group index for a table's GIVEN columns: from the shared per-frame
   cache when one is supplied, ad hoc otherwise. The cache partitions by
   attribute codes — bin codes on binned columns — which is coarser than
   the per-value partition the representative-row probe needs, so tables
   touching a binned GIVEN column always group ad hoc over dictionary
   codes. *)
let group_for ?groups frame (tbl : Program.table) =
  let binned =
    Array.exists (fun c -> Frame.binning frame c <> None) tbl.given
  in
  match groups with
  | Some cache when not binned -> Group.Cache.get cache (Array.to_list tbl.given)
  | _ ->
    let codes =
      Array.to_list
        (Array.map (fun c -> Column.codes (Frame.column frame c)) tbl.given)
    in
    Group.make codes (Array.to_list tbl.cards) (Frame.nrows frame)

(* Per-group expect encoding: each partition's representative key tuple
   probes the rule index once; rows then read a single int (plus the
   group's accepted bounds for range-assignment rules). *)
let group_expect (tbl : Program.table) g frame =
  let ng = Group.n_groups g in
  let ge = Array.make (max ng 1) no_rule in
  let has_ranges = Array.exists (fun e -> e = Program.expect_range) tbl.expect in
  let glo = if has_ranges then Array.make (max ng 1) 0.0 else [||] in
  let ghi = if has_ranges then Array.make (max ng 1) 0.0 else [||] in
  let set gid r =
    let e = tbl.expect.(r) in
    ge.(gid) <- e;
    if e = Program.expect_range then begin
      glo.(gid) <- tbl.rlo.(r);
      ghi.(gid) <- tbl.rhi.(r)
    end
  in
  let k = Array.length tbl.given in
  (match tbl.key with
  | Program.Radix flat ->
    let gcodes =
      Array.map (fun c -> Column.codes (Frame.column frame c)) tbl.given
    in
    for gid = 0 to ng - 1 do
      let r0 = Group.first_row g gid in
      let key = ref 0 in
      for j = 0 to k - 1 do
        key := (!key * tbl.cards.(j)) + gcodes.(j).(r0)
      done;
      let r = flat.(!key) in
      if r >= 0 then set gid r
    done
  | Program.Hashed h ->
    let gcodes =
      Array.map (fun c -> Column.codes (Frame.column frame c)) tbl.given
    in
    for gid = 0 to ng - 1 do
      let r0 = Group.first_row g gid in
      let key = Array.init k (fun j -> gcodes.(j).(r0)) in
      match Hashtbl.find_opt h key with
      | Some r -> set gid r
      | None -> ()
    done
  | Program.Probe ->
    (* value-level probe: rows of a partition share their code tuple,
       hence their values, hence their rule *)
    for gid = 0 to ng - 1 do
      let r0 = Group.first_row g gid in
      match
        Ruleset.find_by tbl.source (fun j -> Frame.get frame r0 tbl.given.(j))
      with
      | Some r -> set gid r
      | None -> ()
    done);
  (ge, glo, ghi)

let eval_table ?groups (p : Program.t) ti dst frame n =
  let tbl = p.tables.(ti) in
  let g = group_for ?groups frame tbl in
  let ge, glo, ghi = group_expect tbl g frame in
  let ids = Group.ids g in
  let on_codes = Column.codes (Frame.column frame tbl.on) in
  let on_fvals =
    if tbl.on_fld >= 0 then p.fields.(tbl.on_fld).fvals else [||]
  in
  let masks = p.masks in
  let bytes = Bitmap.data dst in
  let nbytes = (n + 7) lsr 3 in
  for b = 0 to nbytes - 1 do
    let lo = b lsl 3 in
    let hi = min (lo + 7) (n - 1) in
    let acc = ref 0 in
    for i = lo to hi do
      let gid = Array.unsafe_get ids i in
      let e = Array.unsafe_get ge gid in
      let viol =
        if e = no_rule then false
        else if e >= 0 then Array.unsafe_get on_codes i <> e
        else if e = Program.expect_none then true
        else if e = Program.expect_range then begin
          let v =
            Array.unsafe_get on_fvals (Array.unsafe_get on_codes i)
          in
          not (Array.unsafe_get glo gid <= v && v <= Array.unsafe_get ghi gid)
        end
        else not (in_set masks.(Program.mask_index e) (Array.unsafe_get on_codes i))
      in
      if viol then acc := !acc lor (1 lsl (i land 7))
    done;
    Bytes.unsafe_set bytes b (Char.unsafe_chr !acc)
  done

let exec_op ?groups (p : Program.t) frame n regs op =
  match op with
  | Op.Eq { col; code; dst } ->
    eval_eq (Column.codes (Frame.column frame col)) code regs.(dst) n
  | Op.Ne { col; code; dst } ->
    eval_ne (Column.codes (Frame.column frame col)) code regs.(dst) n
  | Op.In { col; set; dst } ->
    eval_in (Column.codes (Frame.column frame col)) p.sets.(set) regs.(dst) n
  | Op.Range { fld; lo; hi; dst } ->
    let f = p.fields.(fld) in
    eval_range (Column.codes (Frame.column frame f.fcol)) f.fvals lo hi
      regs.(dst) n
  | Op.And { src; dst } -> Bitmap.and_in regs.(dst) regs.(src)
  | Op.Or { src; dst } -> Bitmap.or_in regs.(dst) regs.(src)
  | Op.Andn { src; dst } -> Bitmap.andnot_in regs.(dst) regs.(src)
  | Op.Table { table; dst } -> eval_table ?groups p table regs.(dst) frame n

let run ?groups (p : Program.t) frame =
  if not (Program.compatible p frame) then
    invalid_arg "Vm.Exec.run: frame incompatible with program (stale dictionaries)";
  (match groups with
   | Some c when Group.Cache.frame_key c <> Frame.Snapshot.key frame ->
     invalid_arg "Vm.Exec.run: group cache belongs to another snapshot"
   | _ -> ());
  let n = Frame.nrows frame in
  Obs.Span.with_ "vm.exec"
    ~attrs:(fun () ->
      [ ("rows", string_of_int n); ("ops", string_of_int (Program.n_ops p)) ])
  @@ fun () ->
  let regs = Array.init p.n_regs (fun _ -> Bitmap.create n) in
  Array.iter (exec_op ?groups p frame n regs) p.ops;
  let per_stmt = Array.map (fun r -> regs.(r)) p.stmt_reg in
  let any = Bitmap.create n in
  Array.iter (fun bm -> Bitmap.or_in any bm) per_stmt;
  Obs.Metric.count ~by:n "vm.rows.validated";
  { n; any; per_stmt }

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
