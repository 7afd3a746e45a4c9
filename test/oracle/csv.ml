(* Row-at-a-time reference CSV reader: the reader [Dataframe.Csv] had
   before it parsed straight into dictionary-encoded columns. The whole
   input is split into a [string list list], every cell goes through
   [Value.of_raw], kinds are sniffed over the cells, and the frame is
   built with [Frame.of_rows]. The differential suite checks
   [Dataframe.Csv.of_string] and [parse_string] against [of_string] and
   [parse_string] here on names, kinds, codes, dictionaries, records and
   the raised exception.

   One known difference is deliberate: [of_string] here reports a ragged
   record's line as its record index + 2, which is wrong without a
   header or after a quoted newline; the library reports the physical
   line the record starts on. *)

module Csv = Dataframe.Csv
module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Frame = Dataframe.Frame

let parse_error line message = raise (Csv.Parse_error { line; message })

(* Split the whole input into records of fields. *)
let parse_string s =
  let n = String.length s in
  let records = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 64 in
  let line = ref 1 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let rec plain i =
    if i >= n then (if !fields <> [] || Buffer.length buf > 0 then flush_record ())
    else
      match s.[i] with
      | ',' ->
        flush_field ();
        plain (i + 1)
      | '\n' ->
        flush_record ();
        incr line;
        plain (i + 1)
      | '\r' when i + 1 < n && s.[i + 1] = '\n' ->
        flush_record ();
        incr line;
        plain (i + 2)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then parse_error !line "unterminated quoted field"
    else
      match s.[i] with
      | '"' when i + 1 < n && s.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | '\n' ->
        incr line;
        Buffer.add_char buf '\n';
        quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0;
  List.rev !records

(* Numeric iff every value is null or a number and there are more than
   20 distinct values. *)
let infer_kind cells =
  let all_numeric =
    List.for_all
      (fun v ->
        match (v : Value.t) with
        | Value.Null | Value.Int _ | Value.Float _ -> true
        | Value.Bool _ | Value.String _ -> false)
      cells
  in
  let distinct =
    let tbl = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace tbl v ()) cells;
    Hashtbl.length tbl
  in
  if all_numeric && distinct > 20 then Schema.Numeric else Schema.Categorical

let of_string ?(header = true) s =
  match parse_string s with
  | [] -> invalid_arg "Csv.of_string: empty input"
  | first :: rest ->
    let names, data_rows =
      if header then (first, rest)
      else
        (List.mapi (fun i _ -> Printf.sprintf "col%d" i) first, first :: rest)
    in
    let arity = List.length names in
    let parsed =
      List.mapi
        (fun ln r ->
          if List.length r <> arity then
            parse_error (ln + 2)
              (Printf.sprintf "expected %d fields, got %d" arity (List.length r));
          Array.of_list (List.map Value.of_raw r))
        data_rows
    in
    let cells_of_col j = List.map (fun r -> r.(j)) parsed in
    let cols =
      List.mapi
        (fun j name ->
          match infer_kind (cells_of_col j) with
          | Schema.Numeric -> Schema.numeric name
          | Schema.Ordinal -> Schema.ordinal name
          | Schema.Categorical -> Schema.categorical name)
        names
    in
    Frame.of_rows (Schema.make cols) parsed
