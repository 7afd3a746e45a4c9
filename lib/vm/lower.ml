(* Lowering: rulesets -> predicate bytecode, against one frame.

   Every literal is resolved to the dictionary code it carries in the
   target frame. Key tuples resolve structurally (the dictionary's own
   hashtable), so a rule whose key mentions a value the frame has never
   seen can match no row and is dropped from the lowered key index (it
   still participates in the scalar path, which works at value level).
   Accepted ON codes resolve with [Value.equal], which can alias several
   dictionary entries (Int 1 / Float 1.0) — hence the expect-mask pool.
   Range atoms instead resolve against a column's float image (a
   [Program.field]): bounds stay literal in the op and the kernel
   compares fvals per code.

   Strategy per statement, in order of preference:

   - mask form, single GIVEN column: effective rules are bucketed by
     their expect descriptor; each bucket becomes EQ/IN + NE/IN/RANGE +
     AND(N), OR-ed into the statement register. Chosen when the bucket
     count is small — the whole statement then runs as a handful of
     fused column scans with no per-row key construction at all.
   - mask form, few multi-column rules: one EQ/AND chain per rule.
     Range-keyed rules always take this form when few enough, with
     RANGE ops in place of EQ.
   - table form, everything else: one TABLE op. Rows are partitioned by
     the GIVEN columns through the shared Dataframe.Group CSR index
     (mixed-radix key under the cap, hashed above it) and each
     partition probes the rule index once — O(rows + partitions)
     regardless of rule count. Range-keyed tables use the [Probe] key
     mode: the representative row of each partition resolves through
     [Ruleset.find_by] at value level. *)

module Column = Dataframe.Column
module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Domain = Dataframe.Domain
module Group = Dataframe.Group

let default_cap = Group.default_cap

(* Buckets with more distinct expects than this fall back to TABLE. *)
let max_mask_buckets = 8

(* Multi-column statements with more effective rules than this fall
   back to TABLE. *)
let max_mask_rules = 4

(* Range-keyed statements chain per rule up to this many rules before
   falling back to a Probe TABLE. Chains are pure column scans, so the
   threshold is higher than the hashed-key mask form's. *)
let max_range_rules = 8

type builder = {
  mutable ops : Op.t list;             (* reversed *)
  mutable n_ops : int;
  mutable sets : Bytes.t list;         (* reversed *)
  mutable n_sets : int;
  mutable masks : Bytes.t list;        (* reversed *)
  mutable n_masks : int;
  mutable tables : Program.table list; (* reversed *)
  mutable n_tables : int;
  mutable fields : Program.field list; (* reversed *)
  mutable n_fields : int;
  field_ids : (int, int) Hashtbl.t;    (* column -> fields index *)
}

let new_builder () =
  { ops = []; n_ops = 0; sets = []; n_sets = 0; masks = []; n_masks = 0;
    tables = []; n_tables = 0; fields = []; n_fields = 0;
    field_ids = Hashtbl.create 8 }

let emit b op =
  b.ops <- op :: b.ops;
  b.n_ops <- b.n_ops + 1

let add_set b bytes =
  b.sets <- bytes :: b.sets;
  b.n_sets <- b.n_sets + 1;
  b.n_sets - 1

let add_mask b bytes =
  b.masks <- bytes :: b.masks;
  b.n_masks <- b.n_masks + 1;
  b.n_masks - 1

let add_table b table =
  b.tables <- table :: b.tables;
  b.n_tables <- b.n_tables + 1;
  b.n_tables - 1

(* Float image of a column, shared across ops: one pool entry per
   column per program. *)
let field_for b frame col =
  match Hashtbl.find_opt b.field_ids col with
  | Some i -> i
  | None ->
    let dict = Column.dict (Frame.column frame col) in
    let fvals =
      Array.map
        (fun v ->
          match Value.to_float v with Some x -> x | None -> Float.nan)
        dict
    in
    b.fields <- { Program.fcol = col; fvals } :: b.fields;
    b.n_fields <- b.n_fields + 1;
    let i = b.n_fields - 1 in
    Hashtbl.add b.field_ids col i;
    i

let code_mask ~card codes =
  let bytes = Bytes.make ((card + 7) / 8) '\000' in
  List.iter
    (fun c ->
      Bytes.set bytes (c lsr 3)
        (Char.chr (Char.code (Bytes.get bytes (c lsr 3)) lor (1 lsl (c land 7)))))
    codes;
  bytes

(* Accepted ON codes per equality assignment, Value.equal-tolerant:
   dictionary entries are bucketed once under a canonical key (numerics
   by float value), so each rule costs one lookup instead of a
   dictionary scan. *)
let accepted_codes on_dict =
  let canonical = function Value.Int i -> Value.Float (float_of_int i) | v -> v in
  let buckets : (Value.t, int list) Hashtbl.t =
    Hashtbl.create (max 16 (Array.length on_dict))
  in
  Array.iteri
    (fun c v ->
      let k = canonical v in
      let prev = Option.value ~default:[] (Hashtbl.find_opt buckets k) in
      Hashtbl.replace buckets k (c :: prev))
    on_dict;
  fun assignment ->
    List.rev (Option.value ~default:[] (Hashtbl.find_opt buckets (canonical assignment)))

let radix_key cards key =
  let acc = ref 0 in
  Array.iteri (fun j c -> acc := (!acc * cards.(j)) + c) key;
  !acc

(* Accepted interval of a range assignment ((nan, nan) for equalities,
   never read — expect distinguishes). *)
let interval_of_atom = function
  | Domain.Eq _ -> (Float.nan, Float.nan)
  | Domain.Between { lo; hi } -> (lo, hi)
  | Domain.Le b -> (Float.neg_infinity, b)
  | Domain.Ge b -> (b, Float.infinity)

let lower_stmt b ~cap frame ~s1 ~s2 ~dst rs =
  let given = Ruleset.given rs in
  let on = Ruleset.on rs in
  let k = Array.length given in
  let cols = Array.map (Frame.column frame) given in
  let on_col = Frame.column frame on in
  let cards = Array.map Column.cardinality cols in
  let on_card = Column.cardinality on_col in
  let accepted = accepted_codes (Column.dict on_col) in
  let n_rules = Ruleset.n_rules rs in
  (* expect encoding + accepted bounds per rule *)
  let rlo = Array.make (max n_rules 1) Float.nan in
  let rhi = Array.make (max n_rules 1) Float.nan in
  let expect =
    Array.init n_rules (fun r ->
        match (Ruleset.rule rs r).Ruleset.assignment with
        | Domain.Eq v -> begin
          match accepted v with
          | [] -> Program.expect_none
          | [ c ] -> Program.expect_single c
          | cs -> Program.expect_mask (add_mask b (code_mask ~card:on_card cs))
        end
        | (Domain.Between _ | Domain.Le _ | Domain.Ge _) as a ->
          let lo, hi = interval_of_atom a in
          rlo.(r) <- lo;
          rhi.(r) <- hi;
          Program.expect_range)
  in
  let any_range_expect = Array.exists (fun e -> e = Program.expect_range) expect in
  let on_fld = if any_range_expect then field_for b frame on else -1 in
  (* Expect descriptor of a rule: the encoding plus, for ranges, the
     bounds — two range rules with different windows must not share a
     bucket even though both encode [expect_range]. *)
  let edesc r =
    if expect.(r) = Program.expect_range then (expect.(r), rlo.(r), rhi.(r))
    else (expect.(r), 0.0, 0.0)
  in
  (* emit the matched-and-violating mask for one expect descriptor,
     ANDed into s1 (which holds the matched mask) and OR-ed into dst *)
  let emit_expect (e, lo, hi) =
    if e >= 0 then begin
      emit b (Op.Ne { col = on; code = e; dst = s2 });
      emit b (Op.And { src = s2; dst = s1 })
    end
    else if e = Program.expect_range then begin
      emit b (Op.Range { fld = on_fld; lo; hi; dst = s2 });
      emit b (Op.Andn { src = s2; dst = s1 })
    end
    else if e <> Program.expect_none then begin
      (* aliased expect: accepted codes as an IN set over the ON column *)
      let mask = List.nth (List.rev b.masks) (Program.mask_index e) in
      let set = add_set b (Bytes.copy mask) in
      emit b (Op.In { col = on; set; dst = s2 });
      emit b (Op.Andn { src = s2; dst = s1 })
    end;
    emit b (Op.Or { src = s1; dst })
  in
  if Ruleset.has_range_keys rs then begin
    (* interval-probed keys: per-rule op chains when few, value-level
       Probe table otherwise *)
    let winning = ref [] in
    for r = n_rules - 1 downto 0 do
      if Ruleset.winning rs r then winning := r :: !winning
    done;
    let winning = !winning in
    let emit_key_op ~first j (test : Domain.atom) =
      let reg = if first then s1 else s2 in
      (match test with
      | Domain.Eq v ->
        (* unresolvable equality: handled by the caller's skip *)
        let code = Option.get (Column.code_of_value cols.(j) v) in
        emit b (Op.Eq { col = given.(j); code; dst = reg })
      | (Domain.Between _ | Domain.Le _ | Domain.Ge _) as a ->
        let lo, hi = interval_of_atom a in
        emit b (Op.Range { fld = field_for b frame given.(j); lo; hi; dst = reg }));
      if not first then emit b (Op.And { src = s2; dst = s1 })
    in
    let resolvable (rule : Ruleset.rule) =
      Array.for_all2
        (fun col test ->
          match test with
          | Domain.Eq v -> Column.code_of_value col v <> None
          | _ -> true)
        cols rule.Ruleset.key
    in
    if List.length winning <= max_range_rules then
      List.iter
        (fun r ->
          let rule = Ruleset.rule rs r in
          if resolvable rule then begin
            Array.iteri (fun j t -> emit_key_op ~first:(j = 0) j t) rule.Ruleset.key;
            emit_expect (edesc r)
          end)
        winning
    else begin
      let table =
        add_table b
          { Program.source = rs; given; cards; on; key = Program.Probe;
            expect; rlo; rhi; on_fld }
      in
      emit b (Op.Table { table; dst })
    end
  end
  else begin
    (* equality keys: resolvable key tuples, last duplicate wins *)
    let keyed : (int array, int) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    for r = 0 to n_rules - 1 do
      let rule = Ruleset.rule rs r in
      (* [None] as soon as one value is absent from its dictionary *)
      let key =
        let ts = rule.Ruleset.key in
        let codes = Array.make (Array.length ts) 0 in
        let rec resolve j =
          if j = Array.length ts then Some codes
          else
            match ts.(j) with
            | Domain.Eq v -> (
              match Column.code_of_value cols.(j) v with
              | Some c ->
                codes.(j) <- c;
                resolve (j + 1)
              | None -> None)
            | _ -> assert false
        in
        resolve 0
      in
      match key with
      | None -> ()
      | Some key ->
        if not (Hashtbl.mem keyed key) then order := key :: !order;
        Hashtbl.replace keyed key r
    done;
    let effective =
      List.rev_map (fun key -> (key, Hashtbl.find keyed key)) !order
    in
    let m = List.length effective in
    if m = 0 then ()  (* no rule can match this frame: register stays zero *)
    else begin
      (* bucket single-column statements by expect descriptor *)
      let buckets =
        if k <> 1 then None
        else begin
          let by_expect : (int * float * float, int list) Hashtbl.t =
            Hashtbl.create 8
          in
          let order = ref [] in
          List.iter
            (fun (key, r) ->
              let e = edesc r in
              if not (Hashtbl.mem by_expect e) then order := e :: !order;
              Hashtbl.replace by_expect e
                (key.(0) :: Option.value ~default:[] (Hashtbl.find_opt by_expect e)))
            effective;
          if List.length !order <= max_mask_buckets then
            Some (List.rev_map (fun e -> (e, List.rev (Hashtbl.find by_expect e))) !order)
          else None
        end
      in
      match buckets with
      | Some buckets ->
        List.iter
          (fun (e, codes) ->
            (match codes with
             | [ c ] -> emit b (Op.Eq { col = given.(0); code = c; dst = s1 })
             | cs ->
               let set = add_set b (code_mask ~card:cards.(0) cs) in
               emit b (Op.In { col = given.(0); set; dst = s1 }));
            emit_expect e)
          buckets
      | None when m <= max_mask_rules ->
        List.iter
          (fun (key, r) ->
            emit b (Op.Eq { col = given.(0); code = key.(0); dst = s1 });
            for j = 1 to k - 1 do
              emit b (Op.Eq { col = given.(j); code = key.(j); dst = s2 });
              emit b (Op.And { src = s2; dst = s1 })
            done;
            emit_expect (edesc r))
          effective
      | None ->
        let key =
          match Group.strata_count ~cap (Array.to_list cards) with
          | Some space ->
            let flat = Array.make (max space 1) (-1) in
            List.iter (fun (key, r) -> flat.(radix_key cards key) <- r) effective;
            Program.Radix flat
          | None ->
            let h = Hashtbl.create (2 * m) in
            List.iter (fun (key, r) -> Hashtbl.replace h key r) effective;
            Program.Hashed h
        in
        let table =
          add_table b
            { Program.source = rs; given; cards; on; key; expect; rlo; rhi;
              on_fld }
        in
        emit b (Op.Table { table; dst })
    end
  end

(* Referenced columns (in first-reference order) and their dictionaries. *)
let record_cols frame col_list =
  let seen = Hashtbl.create 16 in
  let cols = ref [] in
  List.iter
    (fun c ->
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        cols := c :: !cols
      end)
    col_list;
  let cols = Array.of_list (List.rev !cols) in
  (cols, Array.map (fun c -> Column.dict (Frame.column frame c)) cols)

let lower ?(cap = default_cap) frame (rules : Ruleset.t array) =
  Obs.Span.with_ "vm.compile"
    ~attrs:(fun () ->
      [ ("stmts", string_of_int (Array.length rules));
        ("rows", string_of_int (Frame.nrows frame)) ])
  @@ fun () ->
  let ncols = Frame.ncols frame in
  Array.iter
    (fun rs ->
      Array.iter
        (fun c ->
          if c < 0 || c >= ncols then
            invalid_arg "Vm.Lower.lower: ruleset column out of range")
        (Ruleset.given rs);
      if Ruleset.on rs >= ncols then
        invalid_arg "Vm.Lower.lower: ruleset column out of range")
    rules;
  let n_stmts = Array.length rules in
  let b = new_builder () in
  let s1 = n_stmts and s2 = n_stmts + 1 in
  Array.iteri (fun i rs -> lower_stmt b ~cap frame ~s1 ~s2 ~dst:i rs) rules;
  let cols, dicts =
    record_cols frame
      (List.concat_map
         (fun rs ->
           Array.to_list (Array.append (Ruleset.given rs) [| Ruleset.on rs |]))
         (Array.to_list rules))
  in
  let p =
    {
      Program.source = rules;
      ops = Array.of_list (List.rev b.ops);
      n_regs = (if n_stmts = 0 then 0 else n_stmts + 2);
      stmt_reg = Array.init n_stmts (fun i -> i);
      sets = Array.of_list (List.rev b.sets);
      masks = Array.of_list (List.rev b.masks);
      tables = Array.of_list (List.rev b.tables);
      fields = Array.of_list (List.rev b.fields);
      cols;
      dicts;
    }
  in
  Obs.Span.add_attr "ops" (string_of_int (Program.n_ops p));
  Obs.Span.add_attr "tables" (string_of_int (Program.n_tables p));
  p

(* ------------------------------------------------------------------ *)
(* Conjunctive row filters: the SQL-guard prefilter path.              *)

type guard =
  | Guard_eq of Value.t
  | Guard_lt of float
  | Guard_le of float
  | Guard_gt of float
  | Guard_ge of float
  | Guard_between of float * float

(* Lower a conjunction of per-column guards to a 1-register program:
   running it yields the bitmap of rows satisfying every guard (NULLs
   and non-numeric cells fail numeric guards, as in SQL three-valued
   logic). An equality on a value absent from the column's dictionary
   short-circuits to the empty program — no row can match. *)
let filter frame (guards : (int * guard) list) =
  let ncols = Frame.ncols frame in
  List.iter
    (fun (c, _) ->
      if c < 0 || c >= ncols then
        invalid_arg "Vm.Lower.filter: column out of range")
    guards;
  let b = new_builder () in
  let satisfiable =
    List.for_all
      (fun (c, g) ->
        match g with
        | Guard_eq v -> Column.code_of_value (Frame.column frame c) v <> None
        | _ -> true)
      guards
  in
  if satisfiable then
    List.iteri
      (fun i (c, g) ->
        let reg = if i = 0 then 0 else 1 in
        let range (lo, hi) =
          emit b (Op.Range { fld = field_for b frame c; lo; hi; dst = reg })
        in
        (match g with
        | Guard_eq v ->
          let code =
            Option.get (Column.code_of_value (Frame.column frame c) v)
          in
          emit b (Op.Eq { col = c; code; dst = reg })
        (* every numeric guard is one inclusive RANGE; strict bounds
           step to the adjacent float *)
        | Guard_lt bound -> range (Float.neg_infinity, Float.pred bound)
        | Guard_le bound -> range (Float.neg_infinity, bound)
        | Guard_gt bound -> range (Float.succ bound, Float.infinity)
        | Guard_ge bound -> range (bound, Float.infinity)
        | Guard_between (lo, hi) -> range (lo, hi));
        if i > 0 then emit b (Op.And { src = 1; dst = 0 }))
      guards;
  let cols, dicts = record_cols frame (List.map fst guards) in
  {
    Program.source = [||];
    ops = (if satisfiable then Array.of_list (List.rev b.ops) else [||]);
    n_regs = 2;
    stmt_reg = [| 0 |];
    sets = [||];
    masks = [||];
    tables = [||];
    fields = Array.of_list (List.rev b.fields);
    cols;
    dicts;
  }
