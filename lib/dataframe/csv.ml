(* Minimal RFC-4180-ish CSV reader/writer: quoted fields, embedded commas,
   doubled quotes, both LF and CRLF line endings. Reading is one pass of
   one byte scanner ([scan]) that hands each field straight to its
   column's [Column.Builder] as a slice of the input; no rows are
   materialized and no string is made per cell. [parse_string] is a
   second consumer of the same scanner. *)

exception Parse_error of { line : int; message : string }

let parse_error line message = raise (Parse_error { line; message })

(* The one tokenizer. [scan s ~field ~record] walks [s] once, calling
   [field j src off len] for the [j]-th field of each record, whose text
   is [src.[off] .. src.[off + len - 1]], and then [record ~line n] with
   the record's field count [n] and the physical line it starts on. An
   unquoted field is a slice of [s] itself, so it costs no allocation;
   only a field holding a quoted section goes through [buf], and its
   contents are the source. A quote opens a quoted section only at the
   start of a field, or right after a section that left the field empty;
   elsewhere it is a literal byte. At the end of input a pending record
   is emitted unless it is a lone empty field. *)
let scan s ~field ~record =
  let n = String.length s in
  let buf = Buffer.create 64 in
  let line = ref 1 and record_line = ref 1 and nfields = ref 0 in
  (* the field ends at the delimiter [s.[i]] (or the end of input): emit
     it, close the record unless the delimiter is a comma, and return the
     index past the delimiter *)
  let finish src off len i =
    field !nfields src off len;
    incr nfields;
    if i >= n || s.[i] <> ',' then begin
      record ~line:!record_line !nfields;
      nfields := 0;
      incr line;
      record_line := !line
    end;
    if i < n && s.[i] = '\r' then i + 2 else i + 1
  in
  let crlf i = i + 1 < n && String.unsafe_get s (i + 1) = '\n' in
  (* the unquoted field [s.[start] .. s.[i - 1]] so far *)
  let rec plain start i =
    if i >= n then begin
      if !nfields > 0 || i > start then next s start (i - start) i
    end
    else
      match String.unsafe_get s i with
      | ',' | '\n' -> next s start (i - start) i
      | '\r' when crlf i -> next s start (i - start) i
      | '"' when i = start ->
        Buffer.clear buf;
        quoted (i + 1)
      | _ -> plain start (i + 1)
  and next src off len i =
    let j = finish src off len i in
    plain j j
  and buffered i =
    let raw = Buffer.contents buf in
    next raw 0 (String.length raw) i
  (* a field past a quoted section; its text so far is in [buf] *)
  and unquoted i =
    if i >= n then begin
      if !nfields > 0 || Buffer.length buf > 0 then buffered i
    end
    else
      match String.unsafe_get s i with
      | ',' | '\n' -> buffered i
      | '\r' when crlf i -> buffered i
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        unquoted (i + 1)
  and quoted i =
    if i >= n then parse_error !line "unterminated quoted field"
    else
      match String.unsafe_get s i with
      | '"' when i + 1 < n && String.unsafe_get s (i + 1) = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> unquoted (i + 1)
      | c ->
        if c = '\n' then incr line;
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0 0

(* Split the whole input into records of fields. *)
let parse_string s =
  let records = ref [] and fields = ref [] in
  scan s
    ~field:(fun _ src off len -> fields := String.sub src off len :: !fields)
    ~record:(fun ~line:_ _ ->
      records := List.rev !fields :: !records;
      fields := []);
  List.rev !records

(* Upper bound on the number of records: one per newline, plus an
   unterminated last line. Exact unless a quoted field holds a newline. *)
let max_records s =
  let n = String.length s in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if String.unsafe_get s i = '\n' then incr k
  done;
  if n > 0 && s.[n - 1] <> '\n' then !k + 1 else !k

(* Kind sniffing over a column's dictionary: numeric iff every distinct
   value is null or a number and there are "many" of them; everything
   else is categorical (which is what GUARDRAIL consumes). *)
let sniffed_col name col =
  let numeric (v : Value.t) =
    match v with
    | Value.Null | Value.Int _ | Value.Float _ -> true
    | Value.Bool _ | Value.String _ -> false
  in
  if Column.cardinality col > 20 && Array.for_all numeric (Column.dict col) then
    Schema.numeric name
  else Schema.categorical name

(* One pass: every field goes straight to its column's interner as a
   slice of the input. The first record is held back until its field
   count fixes the arity. *)
let of_string ?(header = true) s =
  let capacity = max_records s - if header then 1 else 0 in
  let names = ref [||] and cols = ref [||] in
  let first = ref [] and records = ref 0 in
  let field j src off len =
    if !records = 0 then first := String.sub src off len :: !first
    else if j < Array.length !cols then Column.Builder.push !cols.(j) src off len
  in
  let record ~line n =
    if !records = 0 then begin
      let raw = Array.of_list (List.rev !first) in
      cols := Array.init n (fun _ -> Column.Builder.create capacity);
      if header then names := raw
      else begin
        names := Array.init n (Printf.sprintf "col%d");
        Array.iteri (fun j r -> Column.Builder.push !cols.(j) r 0 (String.length r)) raw
      end
    end
    else if n <> Array.length !cols then
      parse_error line
        (Printf.sprintf "expected %d fields, got %d" (Array.length !cols) n);
    incr records
  in
  scan s ~field ~record;
  if !records = 0 then invalid_arg "Csv.of_string: empty input";
  let count f = Array.fold_left (fun acc b -> acc + f b) 0 !cols in
  Obs.Metric.count ~by:(count Column.Builder.length) "csv.cells";
  Obs.Metric.count ~by:(count Column.Builder.distinct) "csv.interned";
  let columns = Array.map Column.Builder.finish !cols in
  let schema =
    Schema.make (Array.to_list (Array.map2 sniffed_col !names columns))
  in
  Frame.of_columns schema (Array.to_list columns)

let load ?header path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_string ?header s

let escape_field s =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quote then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

(* A cell as CSV text. [Value.to_string] keeps 12 digits of a float, so
   a finite float other than an integer below 1e15 (which it writes
   exactly) gets the shortest of %.15g/%.16g/%.17g that reads back to
   the same bits, with a '.' or an exponent so it reads back as a float. *)
let field_of_value (v : Value.t) =
  match v with
  | Value.Float f when Float.is_finite f && not (Float.is_integer f && Float.abs f < 1e15) ->
    (* f is neither zero nor NaN here, so [=] compares bits *)
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p = 17 || float_of_string s = f then s else shortest (p + 1)
    in
    valid_float_lexem (shortest 15)
  | v -> Value.to_string v

let to_string df =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (String.concat "," (List.map escape_field (Frame.names df)));
  Buffer.add_char buf '\n';
  Frame.iter_rows df (fun i ->
      let cells =
        List.init (Frame.ncols df) (fun j ->
            escape_field (field_of_value (Frame.get df i j)))
      in
      Buffer.add_string buf (String.concat "," cells);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let save df path =
  let oc = open_out_bin path in
  output_string oc (to_string df);
  close_out oc
