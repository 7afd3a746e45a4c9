(* In-memory relation: a schema plus one dictionary-encoded column per
   attribute. Rows are materialized on demand.

   Every frame carries a lineage id and an epoch. The pair [(id, epoch)]
   uniquely identifies frame *content*: any operation either mints a
   fresh id (derived frames: filter/take/project/append/set/...) or
   bumps the epoch on the same id (the lineage ops [extend] and
   [update_cells]). Caches key on the pair instead of physical
   identity. A bounded per-epoch row-count log lets consumers ask "what
   changed since epoch e" and get either an append delta or a rebuild
   signal. *)

(* Attribute view of a binned column: dict-style bin codes, one per row.
   [bcard] is [n_bins + 1]; the extra trailing code is the null bin
   (nulls and non-numeric strays), present whether or not it is used so
   cardinalities stay stable across appends. *)
type view = { bcodes : int array; bcard : int }

type domains = {
  doms : Domain.t array;          (* one per column *)
  views : view option array;      (* [None] for categorical columns *)
}

type t = {
  schema : Schema.t;
  columns : Column.t array;
  nrows : int;
  id : int;  (* lineage identity; shared only along extend/update chains *)
  epoch : int;
  (* Earliest epoch whose snapshot is a row-prefix of this one: every
     step from [pure_since] to [epoch] was an [extend]. *)
  pure_since : int;
  (* [(epoch, nrows)] newest first, for epochs in [pure_since, epoch].
     Bounded by [max_epoch_window]. *)
  epoch_rows : (int * int) list;
  (* Learned attribute domains. Attached by [learn_domains];
     maintained by [extend]/[update_cells]; dropped by every other
     derivation. *)
  domains : domains option;
}

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

(* How many append epochs of history to retain for delta queries; older
   epochs answer [Rebuilt], which is always safe. *)
let max_epoch_window = 64

let versioned schema columns nrows =
  {
    schema;
    columns;
    nrows;
    id = fresh_id ();
    epoch = 0;
    pure_since = 0;
    epoch_rows = [ (0, nrows) ];
    domains = None;
  }

let schema t = t.schema
let nrows t = t.nrows
let ncols t = Array.length t.columns
let column t i = t.columns.(i)
let column_by_name t n = t.columns.(Schema.index t.schema n)
let names t = Schema.names t.schema
let index t n = Schema.index t.schema n

module Snapshot = struct
  let id t = t.id
  let epoch t = t.epoch
  let key t = (t.id, t.epoch)
  let same_lineage a b = a.id = b.id
end

module Delta = struct
  type nonrec t =
    | Unchanged
    | Rows_appended of { base_rows : int }
    | Rebuilt

  let since t ~epoch =
    if epoch = t.epoch then Unchanged
    else if epoch >= t.pure_since && epoch < t.epoch then
      match List.assoc_opt epoch t.epoch_rows with
      | Some base_rows -> Rows_appended { base_rows }
      | None -> Rebuilt
    else Rebuilt

  let pp ppf = function
    | Unchanged -> Fmt.pf ppf "unchanged"
    | Rows_appended { base_rows } -> Fmt.pf ppf "rows-appended(base=%d)" base_rows
    | Rebuilt -> Fmt.pf ppf "rebuilt"
end

let check_consistent schema columns =
  let arity = Schema.arity schema in
  if Array.length columns <> arity then
    invalid_arg "Dataframe: schema arity and column count differ";
  if arity > 0 then begin
    let n = Column.length columns.(0) in
    Array.iter
      (fun c ->
        if Column.length c <> n then invalid_arg "Dataframe: ragged columns")
      columns
  end

let of_columns schema columns =
  let columns = Array.of_list columns in
  check_consistent schema columns;
  let nrows = if Array.length columns = 0 then 0 else Column.length columns.(0) in
  versioned schema columns nrows

let of_rows schema rows =
  let arity = Schema.arity schema in
  let rows = Array.of_list rows in
  Array.iter
    (fun r ->
      if Array.length r <> arity then invalid_arg "Dataframe.of_rows: ragged row")
    rows;
  let columns =
    Array.init arity (fun j -> Column.of_values (Array.map (fun r -> r.(j)) rows))
  in
  versioned schema columns (Array.length rows)

let get t row col = Column.get t.columns.(col) row
let get_by_name t row name = get t row (index t name)
let row t i = Array.map (fun c -> Column.get c i) t.columns

let rows t = List.init t.nrows (row t)

let set t row col v =
  let columns = Array.copy t.columns in
  columns.(col) <- Column.set columns.(col) row v;
  versioned t.schema columns t.nrows

(* Batch cell update: one Column.update per touched column instead of a
   whole-frame copy per cell, the cells bucketed by column in an array
   indexed by column. Within a column, updates apply in list order, so
   the result matches folding [set] over the list. *)
let set_cells t cells =
  match cells with
  | [] -> t
  | _ ->
    let by_col = Array.make (Array.length t.columns) [] in
    List.iter (fun (row, col, v) -> by_col.(col) <- (row, v) :: by_col.(col)) cells;
    let columns =
      Array.mapi
        (fun col c ->
          match by_col.(col) with
          | [] -> c
          | changes -> Column.update c (List.rev changes))
        t.columns
    in
    versioned t.schema columns t.nrows

(* Integer code matrix, one code array per column: the representation the
   synthesis pipeline and the baselines operate on. *)
let code_matrix t = Array.map Column.codes t.columns

let cardinalities t = Array.map Column.cardinality t.columns

(* ------------------------------------------------------------------ *)
(* Typed attribute domains *)

(* Code -> float image of a column's dictionary; NaN for nulls, strings
   and non-finite entries. *)
let float_dict col =
  Array.map
    (fun v ->
      match Value.to_float v with
      | Some x when Float.is_finite x -> x
      | Some _ | None -> Float.nan)
    (Column.dict col)

let column_floats col =
  let fd = float_dict col in
  Array.map (fun c -> fd.(c)) (Column.codes col)

let view_of_binning col b =
  let n = Domain.n_bins b in
  let code_bin =
    Array.map
      (fun x -> if Float.is_finite x then Domain.assign b x else n)
      (float_dict col)
  in
  { bcodes = Column.gather code_bin (Column.codes col); bcard = n + 1 }

let views_of_domains columns doms =
  Array.mapi
    (fun j dom ->
      match Domain.binning dom with
      | None -> None
      | Some b -> Some (view_of_binning columns.(j) b))
    doms

(* Fraction of an append's finite values outside a binned column's
   learned envelope that forces [extend] to re-learn the bins. *)
let drift_threshold = 0.2

(* Domains change the frame's attribute view (the codes every grouping
   consumer sees), so attaching them makes a new snapshot: fresh lineage,
   restarted delta log. *)
let attach_domains t doms =
  {
    t with
    id = fresh_id ();
    epoch = 0;
    pure_since = 0;
    epoch_rows = [ (0, t.nrows) ];
    domains = Some { doms; views = views_of_domains t.columns doms };
  }

let learn_domains ~bins t =
  let doms =
    Array.mapi
      (fun j col ->
        let learn m = Domain.learn m ~bins (column_floats col) in
        match Schema.kind t.schema j with
        | Schema.Categorical -> Domain.Categorical
        | Schema.Ordinal ->
          (match learn Domain.Distinct with
           | Some b -> Domain.Ordinal b
           | None -> Domain.Categorical)
        | Schema.Numeric ->
          (match learn Domain.Equi_width with
           | Some b -> Domain.Numeric b
           | None -> Domain.Categorical))
      t.columns
  in
  attach_domains t doms

let has_domains t = Option.is_some t.domains
let domains t = Option.map (fun d -> d.doms) t.domains

let domain t j =
  match t.domains with Some d -> d.doms.(j) | None -> Domain.Categorical

let binning t j = Domain.binning (domain t j)

(* Attach domains only when the schema has something to bin; a frame of
   categorical columns keeps its snapshot (and every cache keyed on it). *)
let ensure_domains ~bins t =
  if has_domains t then t
  else begin
    let needs = ref false in
    for j = 0 to Schema.arity t.schema - 1 do
      match Schema.kind t.schema j with
      | Schema.Ordinal | Schema.Numeric -> needs := true
      | Schema.Categorical -> ()
    done;
    if !needs then learn_domains ~bins t else t
  end

let attr_codes t j =
  match t.domains with
  | Some { views; _ } ->
    (match views.(j) with
     | Some v -> v.bcodes
     | None -> Column.codes t.columns.(j))
  | None -> Column.codes t.columns.(j)

let attr_card t j =
  match t.domains with
  | Some { views; _ } ->
    (match views.(j) with
     | Some v -> v.bcard
     | None -> Column.cardinality t.columns.(j))
  | None -> Column.cardinality t.columns.(j)

let attr_code_matrix t = Array.init (ncols t) (attr_codes t)
let attr_cardinalities t = Array.init (ncols t) (attr_card t)

(* Value-level test selecting exactly the rows carrying attribute code
   [code]: equality on the dict value for categorical columns, the bin's
   interval (or [Eq Null] for the null bin) for binned ones. *)
let attr_atom t j code =
  match binning t j with
  | Some b -> if code >= Domain.n_bins b then Domain.Eq Value.Null else Domain.bin_atom b code
  | None -> Domain.Eq (Column.value_of_code t.columns.(j) code)

let filter t pred =
  let keep = Array.init t.nrows (fun i -> pred t i) in
  let columns = Array.map (fun c -> Column.select c (fun i -> keep.(i))) t.columns in
  let nrows = Array.fold_left (fun acc k -> if k then acc + 1 else acc) 0 keep in
  versioned t.schema columns nrows

let take t indices =
  let columns = Array.map (fun c -> Column.take c indices) t.columns in
  versioned t.schema columns (Array.length indices)

let project t names =
  let idxs = List.map (index t) names in
  let cols = List.map (fun i -> Schema.col t.schema i) idxs in
  let schema = Schema.make cols in
  let columns = Array.of_list (List.map (fun i -> t.columns.(i)) idxs) in
  versioned schema columns t.nrows

let appended_columns a b =
  if Schema.names a.schema <> Schema.names b.schema then
    invalid_arg "Dataframe.append: schema mismatch";
  Array.mapi (fun i c -> Column.append c b.columns.(i)) a.columns

let append a b = versioned a.schema (appended_columns a b) (a.nrows + b.nrows)

(* Lineage-preserving append: same id, next epoch, and the delta log
   records the old row count so caches can merge just the new rows.
   [Column.append] re-encodes [rows] against the existing dictionaries
   append-only (old codes stable, fresh values in first-occurrence
   order), so the result is bit-identical to batch-building the
   concatenated table. *)
let extend t rows =
  let columns = appended_columns t rows in
  let nrows = t.nrows + rows.nrows in
  let epoch = t.epoch + 1 in
  let epoch_rows = (epoch, nrows) :: t.epoch_rows in
  let pure_since, epoch_rows =
    if List.length epoch_rows > max_epoch_window then
      let kept = List.filteri (fun i _ -> i < max_epoch_window) epoch_rows in
      (fst (List.nth kept (max_epoch_window - 1)), kept)
    else (t.pure_since, epoch_rows)
  in
  match t.domains with
  | None -> { t with columns; nrows; epoch; pure_since; epoch_rows }
  | Some d ->
    let base = t.nrows and added = rows.nrows in
    (* Drift: fraction of appended finite values outside a binned column's
       learned [min, max] envelope. Under the threshold, bins extend (the
       new rows clip into the edge bins and codes stay a prefix); past it,
       bins re-learn, codes re-base and the delta log restarts. *)
    let drifted =
      added > 0
      && Array.exists
           (fun j ->
             match Domain.binning d.doms.(j) with
             | None -> false
             | Some b ->
               let fd = float_dict columns.(j) in
               let cs = Column.codes columns.(j) in
               let oor = ref 0 in
               for i = base to nrows - 1 do
                 let x = fd.(cs.(i)) in
                 if Float.is_finite x && not (Domain.in_range b x) then incr oor
               done;
               float_of_int !oor /. float_of_int added > drift_threshold)
           (Array.init (Array.length columns) (fun j -> j))
    in
    if not drifted then
      let views =
        Array.mapi
          (fun j vo ->
            match vo, Domain.binning d.doms.(j) with
            | Some v, Some b ->
              let n = Domain.n_bins b in
              let fd = float_dict columns.(j) in
              let cs = Column.codes columns.(j) in
              let bcodes =
                Array.init nrows (fun i ->
                    if i < base then v.bcodes.(i)
                    else
                      let x = fd.(cs.(i)) in
                      if Float.is_finite x then Domain.assign b x else n)
              in
              Some { v with bcodes }
            | _, _ -> None)
          d.views
      in
      {
        t with
        columns; nrows; epoch; pure_since; epoch_rows;
        domains = Some { d with views };
      }
    else
      let doms =
        Array.mapi
          (fun j dom ->
            match dom with
            | Domain.Categorical -> dom
            | Domain.Ordinal b ->
              Domain.Ordinal (Domain.relearn b (column_floats columns.(j)))
            | Domain.Numeric b ->
              Domain.Numeric (Domain.relearn b (column_floats columns.(j))))
          d.doms
      in
      {
        t with
        columns; nrows; epoch;
        pure_since = epoch;
        epoch_rows = [ (epoch, nrows) ];
        domains = Some { doms; views = views_of_domains columns doms };
      }

(* Lineage-preserving in-place cell edit: same id, next epoch, but the
   delta log restarts — past epochs are no longer prefixes, so
   [Delta.since] answers [Rebuilt] for them. *)
let update_cells t cells =
  let updated = set_cells t cells in
  let epoch = t.epoch + 1 in
  (* Binnings are kept (cell edits never re-learn edges) but the bin codes
     are recomputed; the delta log restarts either way. *)
  let domains =
    match t.domains with
    | None -> None
    | Some d ->
      Some { d with views = views_of_domains updated.columns d.doms }
  in
  {
    updated with
    id = t.id;
    epoch;
    pure_since = epoch;
    epoch_rows = [ (epoch, t.nrows) ];
    domains;
  }

let head t k = take t (Array.init (min k t.nrows) (fun i -> i))

let iter_rows t f =
  for i = 0 to t.nrows - 1 do
    f i
  done

let categorical_indices t =
  let acc = ref [] in
  for i = Schema.arity t.schema - 1 downto 0 do
    match Schema.kind t.schema i with
    | Schema.Categorical -> acc := i :: !acc
    | Schema.Ordinal | Schema.Numeric -> ()
  done;
  !acc

let pp ppf t =
  let arity = ncols t in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "%a@,"
    Fmt.(list ~sep:(any " | ") string)
    (List.init arity (Schema.name t.schema));
  let shown = min t.nrows 20 in
  for i = 0 to shown - 1 do
    Fmt.pf ppf "%a@,"
      Fmt.(list ~sep:(any " | ") string)
      (List.init arity (fun j -> Value.to_string (get t i j)))
  done;
  if t.nrows > shown then Fmt.pf ppf "... (%d rows)@," t.nrows;
  Fmt.pf ppf "@]"
