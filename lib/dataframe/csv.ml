(* Minimal RFC-4180-ish CSV reader/writer: quoted fields, embedded commas,
   doubled quotes, both LF and CRLF line endings. Reading is one byte
   tokenizer ([field]) that packs each field's key while it scans it.
   [of_string] hands every data field straight to its column's
   [Column.Builder] as that key and a slice of the input; no rows are
   materialized and no string is made per cell. [parse_string] reads
   records of strings with the same tokenizer. *)

exception Parse_error of { line : int; message : string }

let parse_error line message = raise (Parse_error { line; message })

(* Packed keys ([Column.Builder.push]). A field of at most 7 bytes packs
   its bytes, first byte lowest, with its length in bits 56-58, so two
   such fields are equal iff their keys are. A longer field runs FNV-1a
   steps from its first 7 bytes on over the rest, and its key is
   [Column.Builder.long] over the low 56 bits: a digest, equal for equal
   fields. [step acc p byte] adds the byte at position [p]. *)
let[@inline] step acc p byte =
  if p < 7 then acc lor (byte lsl (8 * p)) else (acc lxor byte) * 0x100000001b3

let[@inline] key acc len =
  if len <= 7 then acc lor (len lsl 56)
  else Column.Builder.long lor (acc land 0xff_ffff_ffff_ffff)

let key_of src off len =
  let acc = ref 0 in
  for p = 0 to len - 1 do
    acc := step !acc p (Char.code (String.unsafe_get src (off + p)))
  done;
  key !acc len

(* The tokenizer's state. After [field] the field read is described by
   [quoted], [key] and, for a field with a quoted section, [text]. *)
type cursor = {
  s : string;
  n : int;
  buf : Buffer.t;          (* a field's text after a quoted section *)
  mutable quoted : bool;   (* the last field had a quoted section *)
  mutable text : string;   (* its text, when [quoted] *)
  mutable key : int;       (* its packed key *)
  mutable line : int;      (* the physical line being read, 1-based *)
}

let cursor s =
  { s; n = String.length s; buf = Buffer.create 64; quoted = false; text = "";
    key = 0; line = 1 }

let[@inline] crlf c i = i + 1 < c.n && String.unsafe_get c.s (i + 1) = '\n'

(* [field c i] reads the field starting at [i] and returns the index of
   the delimiter that ends it (a comma, LF, the CR of a CRLF) or [n].
   An unquoted field is [s.[i] .. s.[e - 1]] and costs no allocation;
   only a field holding a quoted section goes through [buf]. A quote
   opens a quoted section only at the start of a field, or right after
   a section that left the field empty; elsewhere it is a literal byte.
   [plain] scans the unquoted field [s.[start] .. s.[i - 1]], its key so
   far in [acc]. *)
let rec plain c start i acc =
  if i >= c.n then plain_end c start i acc
  else
    match String.unsafe_get c.s i with
    | ',' | '\n' -> plain_end c start i acc
    | '\r' when crlf c i -> plain_end c start i acc
    | '"' when i = start ->
      Buffer.clear c.buf;
      quoted c (i + 1)
    | ch -> plain c start (i + 1) (step acc (i - start) (Char.code ch))

and plain_end c start i acc =
  c.quoted <- false;
  c.key <- key acc (i - start);
  i

(* a field past a quoted section; its text so far is in [buf] *)
and unquoted c i =
  if i >= c.n then buffered c i
  else
    match String.unsafe_get c.s i with
    | ',' | '\n' -> buffered c i
    | '\r' when crlf c i -> buffered c i
    | '"' when Buffer.length c.buf = 0 -> quoted c (i + 1)
    | ch ->
      Buffer.add_char c.buf ch;
      unquoted c (i + 1)

and quoted c i =
  if i >= c.n then parse_error c.line "unterminated quoted field"
  else
    match String.unsafe_get c.s i with
    | '"' when i + 1 < c.n && String.unsafe_get c.s (i + 1) = '"' ->
      Buffer.add_char c.buf '"';
      quoted c (i + 2)
    | '"' -> unquoted c (i + 1)
    | ch ->
      if ch = '\n' then c.line <- c.line + 1;
      Buffer.add_char c.buf ch;
      quoted c (i + 1)

and buffered c i =
  let text = Buffer.contents c.buf in
  c.quoted <- true;
  c.text <- text;
  c.key <- key_of text 0 (String.length text);
  i

let field c i = plain c i i 0

(* The text of the field [field c i] just read, ending at [e]. *)
let text c i e = if c.quoted then c.text else String.sub c.s i (e - i)

(* Whether the delimiter at [e] closes the record, and the index past it. *)
let[@inline] ends c e = e >= c.n || String.unsafe_get c.s e <> ','
let[@inline] next c e =
  if e >= c.n then c.n else if String.unsafe_get c.s e = '\r' then e + 2 else e + 1

(* A record is pending at the end of input unless it is a lone empty
   field. *)
let[@inline] at_end c i e ~first =
  e >= c.n && first && if c.quoted then c.text = "" else e = i

(* The record starting at [i] as its fields, and the index past it; or
   [None] at the end of input. *)
let record c i =
  let rec go i fields =
    let e = field c i in
    if at_end c i e ~first:(fields = []) then None
    else
      let fields = text c i e :: fields in
      if ends c e then begin
        c.line <- c.line + 1;
        Some (List.rev fields, next c e)
      end
      else go (next c e) fields
  in
  go i []

(* Split the whole input into records of fields. *)
let parse_string s =
  let c = cursor s in
  let rec go i records =
    match record c i with
    | None -> List.rev records
    | Some (r, i) -> go i (r :: records)
  in
  go 0 []

(* The records from [i] on, field [j] of one that starts on line
   [first_line] next: each field goes straight to its column. A ragged
   record is reported once it is read whole. *)
let rec data c cols i j first_line =
  let e = field c i in
  if not (at_end c i e ~first:(j = 0)) then begin
    if j < Array.length cols then
      if c.quoted then Column.Builder.push cols.(j) c.key c.text 0 (String.length c.text)
      else Column.Builder.push cols.(j) c.key c.s i (e - i);
    if ends c e then begin
      if j + 1 <> Array.length cols then
        parse_error first_line
          (Printf.sprintf "expected %d fields, got %d" (Array.length cols) (j + 1));
      c.line <- c.line + 1;
      data c cols (next c e) 0 c.line
    end
    else data c cols (next c e) (j + 1) first_line
  end

(* Upper bound on the number of records: one per newline, plus an
   unterminated last line. Exact unless a quoted field holds a newline.
   Eight bytes at a time: a byte of [x] is zero iff the high bit of its
   [(x land 0x7f..) + 0x7f.. lor x] is clear, with no carry between
   bytes, and a multiply sums the eight 0/1 bytes into the top one. *)
let max_records s =
  let n = String.length s in
  let k = ref 0 in
  for w = 0 to (n / 8) - 1 do
    let x = Int64.logxor (String.get_int64_le s (8 * w)) 0x0a0a0a0a0a0a0a0aL in
    let low = 0x7f7f7f7f7f7f7f7fL in
    let nonzero = Int64.logor (Int64.add (Int64.logand x low) low) x in
    let zeros =
      Int64.to_int
        (Int64.shift_right_logical (Int64.logand (Int64.lognot nonzero) 0x8080808080808080L) 7)
    in
    k := !k + ((zeros * 0x0101010101010101) lsr 56)
  done;
  for i = n land lnot 7 to n - 1 do
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

(* The first record fixes the arity (and is the header, or data); the
   rest is one pass of [data]. *)
let of_string ?(header = true) s =
  let c = cursor s in
  match record c 0 with
  | None -> invalid_arg "Csv.of_string: empty input"
  | Some (first, i) ->
    let first = Array.of_list first in
    let ncols = Array.length first in
    let capacity = max_records s - if header then 1 else 0 in
    let cols = Array.init ncols (fun _ -> Column.Builder.create capacity) in
    let names =
      if header then first
      else begin
        Array.iteri
          (fun j r ->
            let len = String.length r in
            Column.Builder.push cols.(j) (key_of r 0 len) r 0 len)
          first;
        Array.init ncols (Printf.sprintf "col%d")
      end
    in
    data c cols i 0 c.line;
    let count f = Array.fold_left (fun acc b -> acc + f b) 0 cols in
    Obs.Metric.count ~by:(count Column.Builder.length) "csv.cells";
    Obs.Metric.count ~by:(count Column.Builder.distinct) "csv.interned";
    let columns = Array.map Column.Builder.finish cols in
    let schema = Schema.make (Array.to_list (Array.map2 sniffed_col names columns)) in
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
