(* Differential suite for the CSV reader: [Dataframe.Csv.of_string] (one
   pass, per-column raw-field interning) must build the same frame as the
   row-at-a-time [Oracle.Csv.of_string] — the same names, kinds, codes
   and dictionaries, floats compared bit for bit — or raise the same
   class of exception, and [Dataframe.Csv.parse_string] must give the
   oracle's records. Line numbers of ragged records are the one allowed
   difference: the oracle reports record index + 2, the library the
   physical line (pinned in test_dataframe.ml).

   Texts are generated with quoted fields holding commas, doubled quotes
   and newlines, LF and CRLF endings, the NA and boolean spellings, one
   number in several spellings ([1], [01], [1.0], [+1], [0x1F]), ISO-8601
   dates, and columns with more than 20 distinct numbers so they sniff as
   numeric. Mutated texts (truncated, an unbalanced quote, a dropped
   comma) and byte soup over the CSV metacharacters check the error
   paths. The 12 benchmark datasets are pinned as well, both parsed whole
   and appended with [Frame.extend] as the daemon's APPEND does. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Column = Dataframe.Column
module Frame = Dataframe.Frame
module Csv = Dataframe.Csv
module Gen = QCheck.Gen

(* ---------------------------------------------------------------- *)
(* Comparing outcomes *)

let same_value (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let same_column a b =
  Column.codes a = Column.codes b
  && Array.length (Column.dict a) = Array.length (Column.dict b)
  && Array.for_all2 same_value (Column.dict a) (Column.dict b)

let same_frame a b =
  Frame.names a = Frame.names b
  && Frame.nrows a = Frame.nrows b
  && List.for_all
       (fun j ->
         Schema.equal_kind (Schema.kind (Frame.schema a) j) (Schema.kind (Frame.schema b) j)
         && same_column (Frame.column a j) (Frame.column b j))
       (List.init (Frame.ncols a) Fun.id)

type 'a outcome =
  | Ok of 'a
  | Parse of int * string
  | Invalid
  | Other of exn

let outcome f x =
  match f x with
  | v -> Ok v
  | exception Csv.Parse_error { line; message } -> Parse (line, message)
  | exception Invalid_argument _ -> Invalid
  | exception e -> Other e

let is_arity message = String.starts_with ~prefix:"expected " message

(* Equal results, or the same exception class. Lines and messages must
   agree except for ragged records: the oracle numbers those by record
   index and, tokenizing the whole input first, reports an unterminated
   quote later in the text instead. *)
let agree same lib oracle =
  match lib, oracle with
  | Ok x, Ok y -> same x y
  | Parse (_, m1), Parse (_, m2) when is_arity m1 -> m1 = m2 || not (is_arity m2)
  | Parse (l1, m1), Parse (l2, m2) -> l1 = l2 && m1 = m2
  | Invalid, Invalid -> true
  | _ -> false

let describe = function
  | Ok _ -> "ok"
  | Parse (l, m) -> Printf.sprintf "Parse_error line %d: %s" l m
  | Invalid -> "Invalid_argument"
  | Other e -> Printexc.to_string e

let check_text ~header text =
  let lib = outcome (Csv.of_string ~header) text in
  let ref_ = outcome (Oracle.Csv.of_string ~header) text in
  let records = outcome Csv.parse_string text in
  let ref_records = outcome Oracle.Csv.parse_string text in
  let frames_agree = agree same_frame lib ref_ in
  let records_agree = agree ( = ) records ref_records in
  if not (frames_agree && records_agree) then
    QCheck.Test.fail_reportf "header %b, text %S:\nof_string %s, oracle %s\nparse_string %s, oracle %s"
      header text (describe lib) (describe ref_) (describe records) (describe ref_records);
  true

(* ---------------------------------------------------------------- *)
(* Texts *)

let tricky =
  [| ""; "NA"; "N/A"; "NaN"; "nan"; "null"; "NULL"; "true"; "True"; "TRUE"; "false";
     "False"; "FALSE"; "1"; "01"; "1.0"; "+1"; "0x1F"; "31"; "1_000"; "1e3"; "-0"; "-0.0";
     "0.0"; "inf"; "-nan"; "2024-02-29"; "2023-02-29"; "2024-01-01T00:00:00Z";
     "2024-01-01 12:30:00"; "v3"; "v12"; "a,b"; "he said \"hi\""; "line\nbreak";
     "cr\r\nlf"; " x "; "\""; "x\"y"; "\r" |]

(* one column's raw fields: tokens, or > 20 distinct numbers *)
let column_gen nrows =
  Gen.oneof
    [ Gen.array_repeat nrows (Gen.oneofa tricky);
      Gen.array_repeat nrows
        (Gen.frequency
           [ (8, Gen.map string_of_int (Gen.int_range (-500) 500));
             (4, Gen.map (Printf.sprintf "%.3f") (Gen.float_range (-50.) 50.));
             (1, Gen.oneofa [| ""; "NA"; "01"; "+7"; "1.0" |]) ]);
      Gen.array_repeat nrows (Gen.oneofa [| "v1"; "v2"; "v3"; "" |]) ]

(* Quote when needed, and sometimes when not. *)
let render_field force raw =
  if force || String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') raw then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' raw) ^ "\""
  else raw

let table_gen =
  let open Gen in
  let* ncols = int_range 1 4 in
  let* nrows = int_range 0 40 in
  let* names = array_repeat ncols (oneofa [| "a"; "b"; "c"; "d"; "e"; "f"; "g,h" |]) in
  let* cols = array_repeat ncols (column_gen nrows) in
  let* eol = oneofa [| "\n"; "\r\n" |] in
  let* trailing = bool in
  let* quote_all = frequency [ (4, return false); (1, return true) ] in
  let line fields = String.concat "," (Array.to_list (Array.map (render_field quote_all) fields)) in
  let lines = line names :: List.init nrows (fun i -> line (Array.map (fun c -> c.(i)) cols)) in
  let text = String.concat eol lines in
  return (if trailing then text ^ eol else text)

let soup_gen =
  Gen.string_size ~gen:(Gen.oneofa [| 'a'; '1'; ','; '"'; '\n'; '\r'; ' ' |]) (Gen.int_range 0 30)

let mutate_gen text =
  let open Gen in
  let n = String.length text in
  if n = 0 then return text
  else
    let* i = int_bound (n - 1) in
    oneof
      [ return (String.sub text 0 i);
        return (String.sub text 0 i ^ "\"" ^ String.sub text i (n - i));
        (match String.index_from_opt text i ',' with
         | Some k -> return (String.sub text 0 k ^ String.sub text (k + 1) (n - k - 1))
         | None -> return (String.sub text 0 i)) ]

let header_and text_gen =
  QCheck.make
    ~print:(fun (h, t) -> Printf.sprintf "header %b, %S" h t)
    Gen.(pair bool text_gen)

let qcheck_tables =
  QCheck.Test.make ~name:"reader = oracle on generated tables" ~count:1000
    (header_and table_gen) (fun (header, text) -> check_text ~header text)

let qcheck_mutated =
  QCheck.Test.make ~name:"reader = oracle on mutated tables" ~count:1000
    (header_and Gen.(table_gen >>= mutate_gen))
    (fun (header, text) -> check_text ~header text)

let qcheck_soup =
  QCheck.Test.make ~name:"reader = oracle on metacharacter soup" ~count:2000
    (header_and soup_gen) (fun (header, text) -> check_text ~header text)

(* The kind comparison has teeth: 30 distinct ints sniff as numeric. *)
let test_numeric_sniffed () =
  let text =
    "x,y\n" ^ String.concat "\n" (List.init 30 (fun i -> Printf.sprintf "%d,v%d" i (i mod 3)))
  in
  let f = Csv.of_string text in
  Alcotest.(check bool) "numeric" true
    (Schema.equal_kind Schema.Numeric (Schema.kind (Frame.schema f) 0));
  Alcotest.(check bool) "same as oracle" true (same_frame f (Oracle.Csv.of_string text))

let counter name =
  Option.value ~default:0
    (List.assoc_opt name (Obs.Metric.snapshot Obs.Metric.default).Obs.Metric.counters)

(* Corners of the raw-field interner, each against the oracle: a field
   read as a slice of the input and the same text read from a quoted
   section share one code; the empty field and NA share the null code;
   CRLF and a quoted newline leave codes alone; and a column of 5,000
   distinct fields, most seen twice, grows the open-addressing table
   from 64 slots to 16,384. *)
let test_interner_cases () =
  let codes text j = Column.codes (Frame.column (Csv.of_string text) j) in
  let same_as_oracle name text =
    Alcotest.(check bool) (name ^ ": same as oracle") true
      (same_frame (Csv.of_string text) (Oracle.Csv.of_string text))
  in
  let quoted = "k,v\nx,1\n\"x\",2\nx,3\n\"\"\"x\"\"\",4\n" in
  same_as_oracle "quoted" quoted;
  Alcotest.(check (array int)) "x and \"x\" share a code" [| 0; 0; 0; 1 |] (codes quoted 0);
  let nulls = "k,v\n,1\nNA,2\n\"\",3\nNA,4\n" in
  same_as_oracle "nulls" nulls;
  Alcotest.(check (array int)) "empty and NA share the null code" [| 0; 0; 0; 0 |]
    (codes nulls 0);
  let crlf = "k,v\r\na,1\r\nb,2\r\na,1\r\n" in
  same_as_oracle "crlf" crlf;
  Alcotest.(check (array int)) "CRLF" [| 0; 1; 0 |] (codes crlf 0);
  Alcotest.(check (array int)) "CRLF, last column" [| 0; 1; 0 |] (codes crlf 1);
  let newline = "k,v\n\"a\nb\",1\nab,2\n\"a\nb\",3\n" in
  same_as_oracle "quoted newline" newline;
  Alcotest.(check (array int)) "quoted newline" [| 0; 1; 0 |] (codes newline 0);
  let distinct = 5_000 in
  let wide =
    "k,v\n"
    ^ String.concat ""
        (List.init (2 * distinct) (fun i ->
             Printf.sprintf "key%d,%d\n" (i * 7919 mod distinct) (i mod 3)))
  in
  same_as_oracle "wide" wide;
  let cells = counter "csv.cells" and interned = counter "csv.interned" in
  let f = Csv.of_string wide in
  Alcotest.(check int) "wide: cells counted" (2 * 2 * distinct) (counter "csv.cells" - cells);
  Alcotest.(check int) "wide: one interned field per distinct raw field" (distinct + 3)
    (counter "csv.interned" - interned);
  Alcotest.(check int) "wide: every distinct field has a code" distinct
    (Column.cardinality (Frame.column f 0));
  Alcotest.(check bool) "wide: repeats share codes" true
    (Array.for_all2 ( = )
       (Array.sub (Column.codes (Frame.column f 0)) 0 distinct)
       (Array.sub (Column.codes (Frame.column f 0)) distinct distinct))

(* The reader's packed keys: a field of up to 7 bytes is its own key,
   a longer one a digest confirmed against the stored bytes. Each case
   is checked against the oracle, with its codes and its [csv.cells] and
   [csv.interned] deltas pinned: fields of 6, 7 and 8 bytes; long fields
   sharing their first 7 bytes (and a field sharing them with a 7-byte
   one); long fields whose digests collide; [""] against ["\000"] and
   ["a"] against ["a\000"]; NUL and high bytes, up to seven [\xff] (the
   largest short key) and eight; quoted fields against the same text
   unquoted; and 3,000 distinct short fields with 1,000 long ones
   sharing a 7-byte prefix, which grow the table from 64 slots to
   8,192. *)
let test_packed_key_cases () =
  let check name text ~cells ~interned expected =
    let c0 = counter "csv.cells" and i0 = counter "csv.interned" in
    let f = Csv.of_string text in
    Alcotest.(check int) (name ^ ": csv.cells") cells (counter "csv.cells" - c0);
    Alcotest.(check int) (name ^ ": csv.interned") interned (counter "csv.interned" - i0);
    Alcotest.(check bool) (name ^ ": same as oracle") true
      (same_frame f (Oracle.Csv.of_string text));
    Option.iter
      (fun codes ->
        Alcotest.(check (array int)) (name ^ ": codes") codes
          (Column.codes (Frame.column f 0)))
      expected
  in
  let column fields = "k\n" ^ String.concat "\n" fields ^ "\n" in
  check "6/7/8 bytes"
    (column
       [ "abcdef"; "abcdefg"; "abcdefgh"; "abcdefgi"; "abcdefgh"; "abcdefghij";
         "abcdefg"; "abcdef"; "abcdefgij"; "abcdefghij" ])
    ~cells:10 ~interned:6 (Some [| 0; 1; 2; 3; 2; 4; 1; 0; 5; 4 |]);
  (* an eighth byte enters a digest XORed onto the first, so two long
     fields with the same first-XOR-eighth byte and the same other bytes
     share a digest: only the byte compare tells them apart *)
  check "digest collisions"
    (column [ "abcdefgh"; "bbcdefgk"; "abcdefghij"; "bbcdefgkij"; "bbcdefgk"; "abcdefgh" ])
    ~cells:6 ~interned:4 (Some [| 0; 1; 2; 3; 1; 0 |]);
  check "NUL and high bytes"
    (column
       [ "\"\""; "\000"; "\000\000"; "a"; "a\000"; "\000"; "a"; "\xff";
         String.make 7 '\xff'; String.make 8 '\xff'; String.make 7 '\xff';
         "\xfe\xff"; "\xff"; String.make 8 '\xff'; "\"\"" ])
    ~cells:15 ~interned:9 (Some [| 0; 1; 2; 3; 4; 1; 3; 5; 6; 7; 6; 8; 5; 7; 0 |]);
  check "quoted = unquoted"
    (column
       [ "abc"; "\"abc\""; "abcdefghijk"; "\"abcdefghijk\""; "\"abc\"\"d\"";
         "\"abcdefg\""; "abcdefg"; "\"a,b\""; "\"\"\"\""; "x\"" ])
    ~cells:10 ~interned:7 (Some [| 0; 0; 1; 1; 2; 3; 3; 4; 5; 6 |]);
  let short = 3_000 and long = 1_000 in
  let fields =
    List.init (2 * (short + long)) (fun i ->
        let k = i * 7919 mod (short + long) in
        if k < short then string_of_int k else Printf.sprintf "prefix_%d" k)
  in
  check "growth" (column fields) ~cells:(2 * (short + long)) ~interned:(short + long) None

(* ---------------------------------------------------------------- *)
(* The benchmark inputs *)

let test_datasets () =
  List.iter
    (fun (spec : Datagen.Spec.t) ->
      let _, frame = Datagen.Generate.dataset ~n_rows:300 spec in
      let text = Csv.to_string frame in
      let name = spec.Datagen.Spec.name in
      let parsed = Csv.of_string text in
      Alcotest.(check bool) (name ^ ": whole") true
        (same_frame parsed (Oracle.Csv.of_string text));
      (* the daemon's APPEND: extend a loaded base by a parsed delta *)
      let base = Csv.of_string (Csv.to_string (Frame.head frame 200)) in
      let delta = Csv.to_string (Frame.take frame (Array.init 100 (fun i -> 200 + i))) in
      let extended = Frame.extend base (Csv.of_string delta) in
      Alcotest.(check bool) (name ^ ": extend") true
        (same_frame extended (Frame.extend base (Oracle.Csv.of_string delta)));
      Alcotest.(check bool) (name ^ ": extend = whole") true
        (List.for_all
           (fun j -> same_column (Frame.column extended j) (Frame.column parsed j))
           (List.init (Frame.ncols frame) Fun.id)))
    Datagen.Spec.all

let () =
  Alcotest.run "csv_differential"
    [ ( "differential",
        Alcotest.test_case "numeric sniffed" `Quick test_numeric_sniffed
        :: Alcotest.test_case "interner cases" `Quick test_interner_cases
        :: Alcotest.test_case "packed-key cases" `Quick test_packed_key_cases
        :: List.map QCheck_alcotest.to_alcotest [ qcheck_tables; qcheck_mutated; qcheck_soup ] );
      ("datasets", [ Alcotest.test_case "benchmark inputs = oracle" `Quick test_datasets ]) ]
