(* Row-at-a-time reference executor for the ML-integrated SQL subset.
   Every surviving row is materialized as an environment, expressions
   are tree-walked per row, GROUP BY hashes [Value.t list] keys, and the
   guard runs through the row-at-a-time [Validator]. The differential
   suite checks [Sqlexec.Exec.run] against [run] on results, statistics
   and raised exceptions.

   Evaluation order is part of the contract, since it decides which
   error a query raises: the pre-filter scans rows from the last one and
   evaluates the conjuncts [Sqlexec.Exec] offloads to its VM bitmap
   (re-derived here by [offloadable], and evaluated here per row) before
   the residual ones; everything after prediction scans rows in order. *)

open Sqlexec.Sql_ast
module Plan = Sqlexec.Plan
module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Exec = Sqlexec.Exec

let error msg = raise (Exec.Runtime_error msg)

type context = {
  tables : (string, Frame.t) Hashtbl.t;
  models : (string, Mlmodel.Ensemble.t) Hashtbl.t;
  mutable guard : (Guardrail.Validator.compiled * Guardrail.Validator.strategy) option;
}

let create () = { tables = Hashtbl.create 8; models = Hashtbl.create 8; guard = None }
let register_table ctx name frame = Hashtbl.replace ctx.tables name frame
let register_model ctx ~target model = Hashtbl.replace ctx.models target model

let set_guard ctx ?(strategy = Guardrail.Validator.Rectify) compiled =
  ctx.guard <- Some (compiled, strategy)

(* Row environment: materialized (possibly repaired) values plus the
   prediction per target. *)
type env = {
  schema : Dataframe.Schema.t;
  values : Value.t array;
  predictions : (string * Value.t) list;
}

let no_row = { schema = Dataframe.Schema.make []; values = [||]; predictions = [] }

let truthy = function Value.Bool b -> b | _ -> false

let numeric v =
  match Value.to_float v with
  | Some f -> f
  | None -> error (Fmt.str "non-numeric value %a" Value.pp v)

let rec eval env = function
  | Lit v -> v
  | Col name ->
    (match Dataframe.Schema.index_opt env.schema name with
     | Some i -> env.values.(i)
     | None -> error (Printf.sprintf "unknown column %S" name))
  | Predict target ->
    (match List.assoc_opt target env.predictions with
     | Some v -> v
     | None -> error (Printf.sprintf "no prediction for %S" target))
  | Cmp (op, a, b) ->
    let va = eval env a in
    let vb = eval env b in
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
  | Arith (op, a, b) ->
    let va = eval env a in
    let vb = eval env b in
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
  | And (a, b) -> Value.Bool (truthy (eval env a) && truthy (eval env b))
  | Or (a, b) -> Value.Bool (truthy (eval env a) || truthy (eval env b))
  | Not e -> Value.Bool (not (truthy (eval env e)))
  | Case (whens, else_) ->
    let rec go = function
      | (cond, v) :: rest -> if truthy (eval env cond) then eval env v else go rest
      | [] -> (match else_ with Some e -> eval env e | None -> Value.Null)
    in
    go whens
  | Agg _ -> error "aggregate outside aggregation context"

(* Evaluation over a group of environments (row order): aggregates over
   all of them, aggregate-free subexpressions other than literals on the
   first one (NULL when the group is empty), everything else from its
   evaluated children. *)
let rec eval_group group e =
  let sub = eval_group group in
  match e with
  | Lit v -> v
  | Agg (fn, arg) ->
    let values =
      match arg with
      | None -> List.map (fun _ -> Value.Int 1) group
      | Some a -> List.map (fun env -> eval env a) group
    in
    let present = List.filter (fun v -> not (Value.is_null v)) values in
    let numerics = List.filter_map Value.to_float present in
    (match fn with
     | Count -> Value.Int (List.length present)
     | Sum -> Value.Float (List.fold_left ( +. ) 0.0 numerics)
     | Avg ->
       (match numerics with
        | [] -> Value.Null
        | _ ->
          Value.Float
            (List.fold_left ( +. ) 0.0 numerics /. float_of_int (List.length numerics)))
     | Min | Max ->
       let better a b =
         let c = Value.compare b a in
         if fn = Min then c < 0 else c > 0
       in
       (match present with
        | [] -> Value.Null
        | v :: rest -> List.fold_left (fun a b -> if better a b then b else a) v rest))
  | e when not (contains_agg e) ->
    (match group with env :: _ -> eval env e | [] -> Value.Null)
  | Cmp (op, a, b) ->
    let va = sub a in
    let vb = sub b in
    eval no_row (Cmp (op, Lit va, Lit vb))
  | Arith (op, a, b) ->
    let va = sub a in
    let vb = sub b in
    eval no_row (Arith (op, Lit va, Lit vb))
  | And (a, b) -> Value.Bool (truthy (sub a) && truthy (sub b))
  | Or (a, b) -> Value.Bool (truthy (sub a) || truthy (sub b))
  | Not a -> Value.Bool (not (truthy (sub a)))
  | Case (whens, else_) ->
    let rec go = function
      | (cond, v) :: rest -> if truthy (sub cond) then sub v else go rest
      | [] -> (match else_ with Some e -> sub e | None -> Value.Null)
    in
    go whens
  | Col _ | Predict _ -> assert false

(* The conjuncts [Sqlexec.Exec] evaluates on its VM bitmap: a column
   compared with a literal, when the column's dictionary makes the VM's
   comparison agree with [eval]. Only their evaluation order depends on
   this; [eval] still decides which rows pass. *)
let offloadable frame e =
  let dict name =
    match Dataframe.Schema.index_opt (Frame.schema frame) name with
    | Some j -> Some (Dataframe.Column.dict (Frame.column frame j))
    | None -> None
  in
  let numeric_dict ~nan d =
    Array.for_all
      (function
        | Value.Int _ | Value.Null -> true
        | Value.Float f -> nan || not (Float.is_nan f)
        | Value.Bool _ | Value.String _ -> false)
      d
  in
  let fits op v d =
    match op, v with
    | Eq, (Value.String _ | Value.Bool _) -> true
    | (Eq | Gt | Ge), (Value.Int _ | Value.Float _) -> numeric_dict ~nan:true d
    | (Lt | Le), (Value.Int _ | Value.Float _) -> numeric_dict ~nan:false d
    | _ -> false
  in
  let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | o -> o in
  match e with
  | Cmp (op, Col c, Lit v) | Cmp (op, Lit v, Col c) ->
    let op = match e with Cmp (_, Lit _, _) -> flip op | _ -> op in
    (match dict c with Some d -> fits op v d | None -> false)
  | _ -> false

let find_table ctx name =
  match Hashtbl.find_opt ctx.tables name with
  | Some f -> f
  | None -> error (Printf.sprintf "unknown table %S" name)

let find_model ctx target =
  match Hashtbl.find_opt ctx.models target with
  | Some m -> m
  | None -> error (Printf.sprintf "no model registered for %S" target)

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
        error (Printf.sprintf "guard does not fit table %S: %s" table_name msg)
    end

let compare_lists dirs a b =
  let rec go a b dirs =
    match a, b, dirs with
    | x :: xs, y :: ys, asc :: ds ->
      let c = Value.compare x y in
      if c <> 0 then (if asc then c else -c) else go xs ys ds
    | _ -> 0
  in
  go a b dirs

let run ctx sql : Exec.result =
  let plan = Plan.of_query (Sqlexec.Parser.query sql) in
  let frame = find_table ctx plan.Plan.table in
  let schema = Frame.schema frame in
  let n = Frame.nrows frame in
  let guard = guard_for ctx schema plan.Plan.table in
  let violations = ref 0 in
  let rows_predicted = ref 0 in
  let first, rest = List.partition (offloadable frame) plan.Plan.pre_filter in
  let pre_filter = first @ rest in
  let kept = ref [] in
  for i = n - 1 downto 0 do
    let env = { schema; values = Frame.row frame i; predictions = [] } in
    if List.for_all (fun e -> truthy (eval env e)) pre_filter then
      kept := (i, env) :: !kept
  done;
  let envs =
    if not plan.Plan.uses_predict then List.map snd !kept
    else begin
      let idx = Array.of_list (List.map fst !kept) in
      rows_predicted := Array.length idx;
      let sub = Frame.take frame idx in
      let sub =
        match guard with
        | None -> sub
        | Some (compiled, strategy) ->
          let repaired, vs = Validator.handle ~strategy compiled sub in
          violations := List.length vs;
          repaired
      in
      let preds =
        List.map
          (fun target ->
            (target, Mlmodel.Ensemble.predict_frame (find_model ctx target) sub))
          plan.Plan.predict_targets
      in
      List.init (Array.length idx) (fun j ->
          {
            schema;
            values = Frame.row sub j;
            predictions = List.map (fun (t, arr) -> (t, arr.(j))) preds;
          })
    end
  in
  let envs =
    List.filter
      (fun env -> List.for_all (fun e -> truthy (eval env e)) plan.Plan.post_filter)
      envs
  in
  (* output rows paired with their ORDER BY key values *)
  let keyed_rows =
    if plan.Plan.is_aggregate then begin
      let groups : (Value.t list, env list) Hashtbl.t = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun env ->
          let key = List.map (fun e -> eval env e) plan.Plan.group_by in
          if not (Hashtbl.mem groups key) then order := key :: !order;
          Hashtbl.replace groups key
            (env :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
        envs;
      let keys =
        List.sort
          (compare_lists (List.map (fun _ -> true) plan.Plan.group_by))
          (List.rev !order)
      in
      let keys = if plan.Plan.group_by = [] && keys = [] then [ [] ] else keys in
      List.map
        (fun key ->
          let group = List.rev (Option.value ~default:[] (Hashtbl.find_opt groups key)) in
          let row =
            Array.of_list
              (List.map (fun (item : select_item) -> eval_group group item.expr)
                 plan.Plan.select)
          in
          (row, List.map (fun (e, _) -> eval_group group e) plan.Plan.order_by))
        keys
    end
    else
      List.map
        (fun env ->
          let row =
            Array.of_list
              (List.map (fun (item : select_item) -> eval env item.expr) plan.Plan.select)
          in
          (row, List.map (fun (e, _) -> eval env e) plan.Plan.order_by))
        envs
  in
  let keyed_rows =
    List.stable_sort
      (fun (_, a) (_, b) -> compare_lists (List.map snd plan.Plan.order_by) a b)
      keyed_rows
  in
  let keyed_rows =
    match plan.Plan.limit with
    | Some k -> List.filteri (fun i _ -> i < k) keyed_rows
    | None -> keyed_rows
  in
  {
    Exec.columns = List.mapi Plan.output_name plan.Plan.select;
    rows = List.map fst keyed_rows;
    stats =
      {
        Exec.rows_scanned = n;
        rows_predicted = !rows_predicted;
        violations = !violations;
        guardrail_s = 0.0;
        inference_s = 0.0;
      };
  }
