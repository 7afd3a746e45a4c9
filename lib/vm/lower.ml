(* Lowering: rulesets -> predicate bytecode, against one frame.

   Every decision-table statement lowers to exactly one TABLE op. The
   table records the statement's GIVEN columns and their cardinalities
   in the target frame. When the cardinality product fits under [cap]
   it also carries a key->rule memo of that many slots, all
   [Program.unresolved]: Vm.Exec fills a slot the first time a row with
   that key is checked, by one value-level [Ruleset.find_by] probe.
   Past the cap the table carries no memo and Vm.Exec groups rows ad
   hoc, probing once per group. Either way lowering never looks at a
   rule, so it costs O(statements + key space), not O(rules).

   The conjunctive row filter ([filter]) is the other lowering: EQ and
   RANGE ops ANDed into one register. *)

module Column = Dataframe.Column
module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Group = Dataframe.Group

let default_cap = Group.default_cap

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

(* A column's float image: Value.to_float of each dictionary entry, NaN
   where there is none. *)
let float_image frame col =
  Array.map
    (fun v -> match Value.to_float v with Some x -> x | None -> Float.nan)
    (Column.dict (Frame.column frame col))

let lower_table ~cap frame rs =
  let given = Ruleset.given rs in
  let on = Ruleset.on rs in
  let cards =
    Array.map (fun c -> Column.cardinality (Frame.column frame c)) given
  in
  let memo =
    match Group.strata_count ~cap (Array.to_list cards) with
    | Some space -> Array.make (max space 1) Program.unresolved
    | None -> [||]
  in
  let on_fvals =
    if Ruleset.bounds rs = [||] then [||] else float_image frame on
  in
  { Program.source = rs; given; cards; on; on_fvals; memo }

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
      ops = Array.init n_stmts (fun i -> Op.Table { table = i; dst = i });
      n_regs = n_stmts;
      stmt_reg = Array.init n_stmts Fun.id;
      tables = Array.map (lower_table ~cap frame) rules;
      fields = [||];
      cols;
      dicts;
    }
  in
  Obs.Span.add_attr "ops" (string_of_int (Program.n_ops p));
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
  let code_of c v = Column.code_of_value (Frame.column frame c) v in
  let satisfiable =
    List.for_all
      (fun (c, g) ->
        match g with Guard_eq v -> code_of c v <> None | _ -> true)
      guards
  in
  (* one float image per RANGE op, in op order *)
  let fields = ref [] in
  let range c dst (lo, hi) =
    fields := { Program.fcol = c; fvals = float_image frame c } :: !fields;
    Op.Range { fld = List.length !fields - 1; lo; hi; dst }
  in
  let ops =
    if not satisfiable then []
    else
      List.concat
        (List.mapi
           (fun i (c, g) ->
             let dst = if i = 0 then 0 else 1 in
             let range = range c dst in
             let op =
               match g with
               | Guard_eq v -> Op.Eq { col = c; code = Option.get (code_of c v); dst }
               (* every numeric guard is one inclusive RANGE; strict
                  bounds step to the adjacent float *)
               | Guard_lt bound -> range (Float.neg_infinity, Float.pred bound)
               | Guard_le bound -> range (Float.neg_infinity, bound)
               | Guard_gt bound -> range (Float.succ bound, Float.infinity)
               | Guard_ge bound -> range (bound, Float.infinity)
               | Guard_between (lo, hi) -> range (lo, hi)
             in
             if i = 0 then [ op ] else [ op; Op.And { src = 1; dst = 0 } ])
           guards)
  in
  let cols, dicts = record_cols frame (List.map fst guards) in
  {
    Program.source = [||];
    ops = Array.of_list ops;
    n_regs = 2;
    stmt_reg = [| 0 |];
    tables = [||];
    fields = Array.of_list (List.rev !fields);
    cols;
    dicts;
  }
