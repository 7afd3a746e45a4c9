(* Executor for ML-integrated SQL queries.

   Mirrors the paper's §7 prototype, which runs guarded queries
   column-at-a-time over a data frame. A query is one path over a
   selection of the table: [rows], the ascending indices of the rows
   still in play. No stage copies the rows out; each reads the table's
   own columns through the selection. Every expression compiles once per
   query into an [int -> Value.t] closure over a row index; unknown
   names raise only when a row is evaluated, and AND/OR/CASE
   short-circuit per row.

   The stages:
   - scan: the plan's pre-filter runs its offloadable conjuncts as one
     VM bitmap pass over the table, and the residual conjuncts on the
     rows the bitmap kept; the kept rows are the selection;
   - guard (PREDICT queries): the guardrail vets the selected rows in
     place (one of the four handling strategies), numbering violations
     by position in the selection, and Rectify/Coerce repair the table
     frame, sharing its untouched columns;
   - inference: each PREDICT() target is predicted over the (repaired)
     frame at the selection, as label codes plus the model's label
     dictionary, scattered to an array indexed by row;
   - the post-filter narrows the selection; then either a projection per
     row or GROUP BY, whose keys are code arrays at the selection (a
     bare column's or PREDICT target's own, any other expression's
     interned values) grouped by the shared [Dataframe.Group] kernel,
     with aggregates folded over each group's rows;
   - ORDER BY is a stable sort of an index permutation, LIMIT a
     truncation.

   Guardrail time and inference time are metered separately (Table 6). *)

open Sql_ast

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Column = Dataframe.Column
module Group = Dataframe.Group

exception Runtime_error of string

type context = {
  tables : (string, Frame.t) Hashtbl.t;
  (* keyed by (table scope, target name); [None] serves every table *)
  models : (string option * string, Mlmodel.Ensemble.t) Hashtbl.t;
  (* the installed guard, pre-compiled against its own schema *)
  mutable guard : (Guardrail.Validator.compiled * Guardrail.Validator.strategy) option;
}

type stats = {
  rows_scanned : int;
  rows_predicted : int;
  violations : int;
  guardrail_s : float;
  inference_s : float;
}

type result = {
  columns : string list;
  rows : Value.t array list;
  stats : stats;
}

let create () = { tables = Hashtbl.create 8; models = Hashtbl.create 8; guard = None }

let register_table ctx name frame = Hashtbl.replace ctx.tables name frame

let register_model ctx ?table ~target model = Hashtbl.replace ctx.models (table, target) model

let set_guard ctx ?(strategy = Guardrail.Validator.Rectify) compiled =
  ctx.guard <- Some (compiled, strategy)

let clear_guard ctx = ctx.guard <- None

(* ------------------------------------------------------------------ *)
(* Expression semantics *)

let truthy = function Value.Bool b -> b | _ -> false

(* Does row [i] pass every compiled predicate (short-circuiting)? *)
let passes preds i = List.for_all (fun f -> truthy (f i)) preds

let numeric v =
  match Value.to_float v with
  | Some f -> f
  | None -> raise (Runtime_error (Fmt.str "non-numeric value %a" Value.pp v))

(* A NULL operand makes a comparison false and arithmetic NULL. *)
let compare_values op va vb =
  if Value.is_null va || Value.is_null vb then Value.Bool false
  else begin
    let c = Value.compare va vb in
    Value.Bool
      (match op with
       | Eq -> c = 0
       | Neq -> c <> 0
       | Lt -> c < 0
       | Le -> c <= 0
       | Gt -> c > 0
       | Ge -> c >= 0)
  end

let arith op va vb =
  if Value.is_null va || Value.is_null vb then Value.Null
  else begin
    let x = numeric va in
    let y = numeric vb in
    match op with
    | Add -> Value.Float (x +. y)
    | Sub -> Value.Float (x -. y)
    | Mul -> Value.Float (x *. y)
    | Div -> if y = 0.0 then Value.Null else Value.Float (x /. y)
  end

(* [compile leaf e] closes [e] over an evaluation point, a row or a
   group. [leaf] claims the subexpressions it evaluates itself; the
   others combine their children left to right. *)
let rec compile leaf e =
  match leaf e with
  | Some f -> f
  | None ->
    let binary a b k =
      let fa = compile leaf a and fb = compile leaf b in
      fun x ->
        let va = fa x in
        k va (fb x)
    in
    (match e with
     | Lit v -> fun _ -> v
     | Cmp (op, a, b) -> binary a b (compare_values op)
     | Arith (op, a, b) -> binary a b (arith op)
     | And (a, b) ->
       let fa = compile leaf a and fb = compile leaf b in
       fun x -> Value.Bool (truthy (fa x) && truthy (fb x))
     | Or (a, b) ->
       let fa = compile leaf a and fb = compile leaf b in
       fun x -> Value.Bool (truthy (fa x) || truthy (fb x))
     | Not a ->
       let fa = compile leaf a in
       fun x -> Value.Bool (not (truthy (fa x)))
     | Case (whens, else_) ->
       let whens = List.map (fun (c, v) -> (compile leaf c, compile leaf v)) whens in
       let else_ =
         match else_ with Some e -> compile leaf e | None -> fun _ -> Value.Null
       in
       fun x ->
         let rec go = function
           | (c, v) :: rest -> if truthy (c x) then v x else go rest
           | [] -> else_ x
         in
         go whens
     | Col _ | Predict _ | Agg _ -> invalid_arg "Exec.compile: unclaimed leaf")

(* Row evaluation over [frame]: row [i]'s cells through the column
   dictionaries, its predictions through each target's label codes
   (indexed by row, like the frame) and label dictionary. *)
let compile_row frame predictions =
  compile (function
    | Col name ->
      Some
        (match Dataframe.Schema.index_opt (Frame.schema frame) name with
         | Some j ->
           let col = Frame.column frame j in
           let codes = Column.codes col and dict = Column.dict col in
           fun i -> dict.(codes.(i))
         | None ->
           fun _ -> raise (Runtime_error (Printf.sprintf "unknown column %S" name)))
    | Predict target ->
      Some
        (match List.assoc_opt target predictions with
         | Some (codes, dict) -> fun i -> dict.(codes.(i))
         | None ->
           fun _ ->
             raise (Runtime_error (Printf.sprintf "no prediction for %S" target)))
    | Agg _ ->
      Some (fun _ -> raise (Runtime_error "aggregate outside aggregation context"))
    | _ -> None)

(* One aggregate over the rows [members.(lo .. hi - 1)], in row order —
   which fixes the float summation order. NULLs are skipped;
   COUNT( * ) counts every row. *)
let aggregate fn value members lo hi =
  let fold f init =
    let acc = ref init in
    for k = lo to hi - 1 do
      let v = value members.(k) in
      if not (Value.is_null v) then acc := f !acc v
    done;
    !acc
  in
  match fn with
  | Count -> Value.Int (fold (fun n _ -> n + 1) 0)
  | Sum | Avg ->
    let sum, n =
      fold
        (fun (sum, n) v ->
          match Value.to_float v with Some f -> (sum +. f, n + 1) | None -> (sum, n))
        (0.0, 0)
    in
    if fn = Sum then Value.Float sum
    else if n = 0 then Value.Null
    else Value.Float (sum /. float_of_int n)
  | Min | Max ->
    let better v best =
      let c = Value.compare v best in
      if fn = Min then c < 0 else c > 0
    in
    fold (fun best v -> if Value.is_null best || better v best then v else best) Value.Null

(* Group evaluation: group [g] is the rows [members.(offsets.(g) ..
   offsets.(g + 1) - 1)]. Aggregates fold over them; an aggregate-free
   subexpression other than a literal evaluates on the group's first
   row (NULL for the one empty group of an ungrouped aggregate over no
   rows); the rest combine their children like rows do. *)
let eval_group row ~members ~offsets =
  compile (function
    | Lit _ -> None
    | Agg (fn, arg) ->
      let value = match arg with Some a -> row a | None -> fun _ -> Value.Int 1 in
      Some (fun g -> aggregate fn value members offsets.(g) offsets.(g + 1))
    | e when not (contains_agg e) ->
      let f = row e in
      Some
        (fun g ->
          let lo = offsets.(g) in
          if lo = offsets.(g + 1) then Value.Null else f members.(lo))
    | _ -> None)

(* Lexicographic order on key tuples, [ascending.(k)] per position. *)
let compare_keys ascending a b =
  let rec go k =
    if k = Array.length ascending then 0
    else begin
      let c = Value.compare a.(k) b.(k) in
      if c <> 0 then (if ascending.(k) then c else -c) else go (k + 1)
    end
  in
  go 0

(* A GROUP BY key's codes at the selection [rows] and the dictionary
   they index, when the key is a bare column or a PREDICT target: their
   dictionaries are structural, so codes group exactly as values do.
   [None] for any other expression. *)
let own_codes frame predictions rows = function
  | Col name -> (
    match Dataframe.Schema.index_opt (Frame.schema frame) name with
    | Some j ->
      let col = Frame.column frame j in
      Some (Column.gather (Column.codes col) rows, Column.dict col)
    | None -> None)
  | Predict target -> (
    match List.assoc_opt target predictions with
    | Some (codes, dict) -> Some (Column.gather codes rows, dict)
    | None -> None)
  | _ -> None

(* GROUP BY: each key's values at the selection are dictionary-coded —
   a bare column or PREDICT target brings its own codes, any other
   expression is evaluated row by row (row-major, so the first error is
   the row evaluation's) and interned — and the code tuples are grouped
   by the shared kernel, so group identity is structural (Int 1 and
   Float 1.0 are separate groups). Returns the group ids in
   [Value.compare] order of their keys (ties in first-occurrence order)
   with the CSR [members]/[offsets] of frame rows, ascending within each
   group. Without GROUP BY all rows form one group, even when there are
   none. *)
let group_rows frame predictions row group_by rows =
  match group_by with
  | [] -> ([| 0 |], rows, [| 0; Array.length rows |])
  | exprs ->
    let m = Array.length rows in
    let keys = Array.of_list exprs in
    let coded = Array.map (own_codes frame predictions rows) keys in
    let rest =
      List.filter (fun k -> Option.is_none coded.(k)) (List.init (Array.length keys) Fun.id)
    in
    let fs = List.map (fun k -> row keys.(k)) rest in
    let cells = List.map (fun _ -> Array.make m Value.Null) fs in
    Array.iteri (fun r i -> List.iter2 (fun f c -> c.(r) <- f i) fs cells) rows;
    List.iter2
      (fun k c ->
        let c = Column.of_values c in
        coded.(k) <- Some (Column.codes c, Column.dict c))
      rest cells;
    let coded = Array.map Option.get coded in
    let g =
      Group.make
        (Array.to_list (Array.map fst coded))
        (Array.to_list (Array.map (fun (_, dict) -> Array.length dict) coded))
        m
    in
    let keys =
      Array.init (Group.n_groups g) (fun gid ->
          let r = Group.first_row g gid in
          Array.map (fun (codes, dict) -> dict.(codes.(r))) coded)
    in
    let ascending = Array.make (Array.length coded) true in
    let order = Array.init (Group.n_groups g) Fun.id in
    Array.stable_sort (fun a b -> compare_keys ascending keys.(a) keys.(b)) order;
    (order, Column.gather rows (Group.row_index g), Group.offsets g)

(* The rows [at k] of the positions [k] set in [keep], in order. *)
let selected keep at =
  let out = Array.make (Vm.Bitmap.count keep) 0 and m = ref 0 in
  Vm.Bitmap.iteri_set keep (fun k ->
      out.(!m) <- at k;
      incr m);
  out

let find_table ctx name =
  match Hashtbl.find_opt ctx.tables name with
  | Some f -> f
  | None -> raise (Runtime_error (Printf.sprintf "unknown table %S" name))

let find_model ctx ~table target =
  match Hashtbl.find_opt ctx.models (Some table, target) with
  | Some m -> m
  | None -> (
    match Hashtbl.find_opt ctx.models (None, target) with
    | Some m -> m
    | None -> raise (Runtime_error (Printf.sprintf "no model registered for %S" target)))

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* WHERE-guard offload: column-vs-literal conjuncts lower to the VM's
   bitmap prefilter ({!Vm.Lower.filter}) when that path provably agrees
   with row evaluation, which compares values with [Value.compare],
   which ranks across constructors (Bool < numeric < String) and aliases
   Int/Float numerically; the VM compares dictionary codes (equality) or
   column float images (ranges). The two agree exactly when:

   - equality on a String/Bool literal: dictionary codes are structural,
     and cross-constructor ranks never compare equal;
   - equality or a range on an Int/Float literal over a column whose
     dictionary holds only Int/Float/Null: NULL cells fail both paths
     ([eval] short-circuits a NULL operand to false, the VM maps it to
     NaN which fails every range), and numeric cells compare numerically
     on both. Numeric equality lowers as a degenerate BETWEEN so Int 1
     matches a Float 1.0 cell, exactly like [Value.compare];
   - [<] and [<=] additionally require the dictionary to be NaN-free:
     OCaml's [Float.compare] totalizes NaN below every number, so row
     evaluation accepts [x < k] for a NaN cell where the VM's NaN-fails-ranges
     kernel rejects it. ([>], [>=] and [=] reject NaN on both paths.)

   Anything else (NULL literals, <>, mixed-type columns, compound
   expressions) stays a residual conjunct, evaluated per surviving row. *)

let numeric_dict ~nan frame col =
  Array.for_all
    (function
      | Value.Int _ | Value.Null -> true
      | Value.Float f -> nan || not (Float.is_nan f)
      | Value.Bool _ | Value.String _ -> false)
    (Column.dict (Frame.column frame col))

let guard_of_conjunct frame schema e =
  let offload op name v =
    match Dataframe.Schema.index_opt schema name, v with
    | Some col, (Value.String _ | Value.Bool _) when op = Eq ->
      Some (col, Vm.Lower.Guard_eq v)
    | Some col, (Value.Int _ | Value.Float _) ->
      let f = Option.get (Value.to_float v) in
      let numeric = numeric_dict frame col in
      (match op with
       | Eq when numeric ~nan:true -> Some (col, Vm.Lower.Guard_between (f, f))
       | Gt when numeric ~nan:true -> Some (col, Vm.Lower.Guard_gt f)
       | Ge when numeric ~nan:true -> Some (col, Vm.Lower.Guard_ge f)
       | Lt when numeric ~nan:false -> Some (col, Vm.Lower.Guard_lt f)
       | Le when numeric ~nan:false -> Some (col, Vm.Lower.Guard_le f)
       | _ -> None)
    | _ -> None
  in
  let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | o -> o in
  match e with
  | Cmp (op, Col c, Lit v) -> offload op c v
  | Cmp (op, Lit v, Col c) -> offload (flip op) c v
  | _ -> None

(* The guard compilation fitting [schema]: the installed one when the
   column layout matches; otherwise the guard is re-bound by column name
   and compiled for this query (views may order or extend columns
   differently). *)
let guard_for ctx schema table_name =
  match ctx.guard with
  | None -> None
  | Some (compiled, strategy) ->
    let prog = Guardrail.Validator.source compiled in
    if Dataframe.Schema.names prog.Guardrail.Dsl.schema = Dataframe.Schema.names schema
    then Some (compiled, strategy)
    else begin
      try
        Some
          (Guardrail.Validator.compile (Guardrail.Validator.rebind prog schema), strategy)
      with Invalid_argument msg ->
        raise
          (Runtime_error
             (Printf.sprintf "guard does not fit table %S: %s" table_name msg))
    end

let run ctx sql =
  Obs.Span.with_ "sql.query" @@ fun () ->
  let q = Parser.query sql in
  let plan = Plan.of_query q in
  let frame = find_table ctx plan.Plan.table in
  let schema = Frame.schema frame in
  let n = Frame.nrows frame in
  let guard = guard_for ctx schema plan.Plan.table in
  let guardrail_s = ref 0.0 in
  let inference_s = ref 0.0 in
  let violations = ref 0 in
  (* scan + pre-filter: offloadable conjuncts run as one VM bitmap pass
     over the columnar data; the residual conjuncts then filter only the
     rows the bitmap kept *)
  let guards, residual =
    List.partition_map
      (fun e ->
        match guard_of_conjunct frame schema e with
        | Some g -> Left g
        | None -> Right e)
      plan.Plan.pre_filter
  in
  let prefilter =
    match guards with
    | [] -> None
    | gs -> Some (Vm.Exec.run (Vm.Lower.filter frame gs) frame).Vm.Exec.any
  in
  let residual = List.map (compile_row frame []) residual in
  (* the selection: the bitmap's rows that pass the residual, which is
     evaluated in a descending scan so that it raises on the row the
     row-at-a-time scan would *)
  let keep =
    match prefilter with
    | Some bm -> bm
    | None ->
      let all = Vm.Bitmap.create n in
      Vm.Bitmap.fill_all all;
      all
  in
  (match residual with
   | [] -> ()
   | _ ->
     for i = n - 1 downto 0 do
       if Vm.Bitmap.get keep i && not (passes residual i) then Vm.Bitmap.clear keep i
     done);
  let rows = selected keep Fun.id in
  (* prediction with guardrail interception over the selection: the
     guard vets the selected rows of the table in one batch over the
     VM's violation bitmaps and repairs them in one batch update of the
     table frame (untouched columns shared); each target is predicted in
     one call over the repaired frame at the selection, its label codes
     scattered to a row-indexed array *)
  let frame, predictions =
    if not plan.Plan.uses_predict then (frame, [])
    else begin
      let frame =
        match guard with
        | None -> frame
        | Some (compiled, strategy) ->
          let t0 = now () in
          let repaired, vs =
            Fun.protect
              ~finally:(fun () -> guardrail_s := now () -. t0)
              (fun () -> Guardrail.Validator.handle ~rows ~strategy compiled frame)
          in
          violations := List.length vs;
          repaired
      in
      let t1 = now () in
      let predictions =
        List.map
          (fun target ->
            let model = find_model ctx ~table:plan.Plan.table target in
            let by_row = Array.make n 0 in
            Array.iteri
              (fun k c -> by_row.(rows.(k)) <- c)
              (Mlmodel.Ensemble.predict model frame rows);
            (target, (by_row, Mlmodel.Ensemble.labels model)))
          plan.Plan.predict_targets
      in
      inference_s := now () -. t1;
      (frame, predictions)
    end
  in
  let rows_predicted = if plan.Plan.uses_predict then Array.length rows else 0 in
  let row = compile_row frame predictions in
  let post_filter = List.map row plan.Plan.post_filter in
  let rows =
    match post_filter with
    | [] -> rows
    | _ ->
      let keep = Vm.Bitmap.create (Array.length rows) in
      Array.iteri (fun k i -> if passes post_filter i then Vm.Bitmap.set keep k) rows;
      selected keep (Array.get rows)
  in
  (* evaluation points: rows, or group ids in key order *)
  let points, eval =
    if plan.Plan.is_aggregate then begin
      let order, members, offsets =
        group_rows frame predictions row plan.Plan.group_by rows
      in
      (order, eval_group row ~members ~offsets)
    end
    else (rows, row)
  in
  let items = Array.of_list (List.map (fun (it : select_item) -> eval it.expr) plan.Plan.select) in
  let keys = Array.of_list (List.map (fun (e, _) -> eval e) plan.Plan.order_by) in
  let out =
    Array.map
      (fun p ->
        let row = Array.map (fun f -> f p) items in
        (row, Array.map (fun f -> f p) keys))
      points
  in
  (* ORDER BY: stable sort of an index permutation (ties keep scan or
     group order); LIMIT truncates it *)
  let perm = Array.init (Array.length out) Fun.id in
  if plan.Plan.order_by <> [] then begin
    let ascending = Array.of_list (List.map snd plan.Plan.order_by) in
    Array.stable_sort (fun a b -> compare_keys ascending (snd out.(a)) (snd out.(b))) perm
  end;
  let k =
    match plan.Plan.limit with
    | Some k -> max 0 (min k (Array.length perm))
    | None -> Array.length perm
  in
  let rows = List.init k (fun j -> fst out.(perm.(j))) in
  if Obs.Span.enabled () then begin
    Obs.Span.add_attr "rows" (string_of_int k);
    Obs.Span.add_attr "violations" (string_of_int !violations);
    Obs.Span.add_attr "guardrail_ms" (Printf.sprintf "%.3f" (!guardrail_s *. 1e3));
    Obs.Span.add_attr "inference_ms" (Printf.sprintf "%.3f" (!inference_s *. 1e3))
  end;
  {
    columns = List.mapi Plan.output_name plan.Plan.select;
    rows;
    stats =
      {
        rows_scanned = n;
        rows_predicted;
        violations = !violations;
        guardrail_s = !guardrail_s;
        inference_s = !inference_s;
      };
  }

(* Materialize a result as a frame: the paper's prototype has no native
   JOIN; joins are pre-computed into materialized views and queried as
   tables. Column kinds are sniffed from the cells. *)
let frame_of_result (r : result) =
  let numeric_col j =
    List.for_all
      (fun row ->
        match row.(j) with
        | Value.Int _ | Value.Float _ | Value.Null -> true
        | Value.Bool _ | Value.String _ -> false)
      r.rows
    && r.rows <> []
  in
  let cols =
    List.mapi
      (fun j name ->
        if numeric_col j then Dataframe.Schema.numeric name
        else Dataframe.Schema.categorical name)
      r.columns
  in
  Frame.of_rows (Dataframe.Schema.make cols) r.rows

(* Run a query now and register its result as a queryable table. *)
let register_view ctx name sql =
  let r = run ctx sql in
  register_table ctx name (frame_of_result r);
  r

(* Numeric vector view of a result (row-major over numeric cells), used by
   the Fig. 6 relative-error metric. *)
let numeric_vector r =
  let acc = ref [] in
  List.iter
    (fun row ->
      Array.iter
        (fun v -> match Value.to_float v with Some f -> acc := f :: !acc | None -> ())
        row)
    r.rows;
  Array.of_list (List.rev !acc)

let pp_result ppf r =
  Fmt.pf ppf "@[<v>%a@," Fmt.(list ~sep:(any " | ") string) r.columns;
  List.iter
    (fun row ->
      Fmt.pf ppf "%a@,"
        Fmt.(list ~sep:(any " | ") string)
        (Array.to_list (Array.map Value.to_string row)))
    r.rows;
  Fmt.pf ppf "@]"
