(* Feature extraction: dataframe columns -> fitted integer codes.

   The encoder is fitted on the training split (dictionary per feature
   column) and maps unseen test-time values to a reserved "unknown" code,
   so models never see out-of-range inputs. Models read a frame column
   at a time: each feature is the frame's own code array seen through a
   remap from the frame's dictionary codes to the fitted codes, so no
   encoded copy of the frame is made. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Column = Dataframe.Column

type t = {
  feature_cols : string array;           (* by name: survives re-ordering *)
  label_col : string;
  dicts : (Value.t, int) Hashtbl.t array; (* per feature column *)
  cards : int array;                      (* including the unknown code *)
  label_dict : (Value.t, int) Hashtbl.t;
  label_values : Value.t array;           (* label code -> value *)
}

type column = { remap : int array; codes : int array }

let get c i = c.remap.(c.codes.(i))

let unknown_code t j = t.cards.(j) - 1

let index_of_dict dict =
  let h = Hashtbl.create (max 16 (Array.length dict)) in
  Array.iteri (fun code v -> Hashtbl.replace h v code) dict;
  h

let fit frame ~label =
  let feature_cols =
    Array.of_list (List.filter (fun n -> n <> label) (Frame.names frame))
  in
  let dict name = Column.dict (Frame.column_by_name frame name) in
  let label_values = Array.copy (dict label) in
  {
    feature_cols;
    label_col = label;
    dicts = Array.map (fun n -> index_of_dict (dict n)) feature_cols;
    cards = Array.map (fun n -> Array.length (dict n) + 1) feature_cols;
    label_dict = index_of_dict label_values;
    label_values;
  }

let n_features t = Array.length t.dicts
let n_labels t = Array.length t.label_values
let cards t = Array.copy t.cards
let feature_names t = Array.to_list t.feature_cols
let label_value t code = t.label_values.(code)
let label_code t v = Hashtbl.find_opt t.label_dict v

let code t j v =
  match Hashtbl.find_opt t.dicts.(j) v with
  | Some c -> c
  | None -> unknown_code t j

(* One hashtable lookup per distinct value of the frame's column, none
   per cell. *)
let columns t frame =
  Array.mapi
    (fun j name ->
      let col = Frame.column_by_name frame name in
      { remap = Array.map (code t j) (Column.dict col); codes = Column.codes col })
    t.feature_cols

let row_columns t frame row =
  Array.mapi
    (fun j name ->
      { remap = [| code t j (Frame.get_by_name frame row name) |]; codes = [| 0 |] })
    t.feature_cols

let encode_columns t frame =
  Array.map (fun c -> Column.gather c.remap c.codes) (columns t frame)

let labels t frame =
  let col = Frame.column_by_name frame t.label_col in
  let remap =
    Array.map
      (fun v -> Option.value ~default:(-1) (label_code t v))
      (Column.dict col)
  in
  Column.gather remap (Column.codes col)
