(* Unit and property tests for the dataframe substrate. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Column = Dataframe.Column
module Frame = Dataframe.Frame
module Csv = Dataframe.Csv
module Split = Dataframe.Split
module Group = Dataframe.Group

let value = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_order () =
  Alcotest.(check bool) "null < bool" true (Value.compare Value.Null (Value.Bool false) < 0);
  Alcotest.(check bool) "bool < int" true (Value.compare (Value.Bool true) (Value.Int 0) < 0);
  Alcotest.(check bool) "int < string" true (Value.compare (Value.Int 5) (Value.String "a") < 0);
  Alcotest.(check int) "int = float numerically" 0
    (Value.compare (Value.Int 1) (Value.Float 1.0));
  Alcotest.(check bool) "int < float" true
    (Value.compare (Value.Int 1) (Value.Float 1.5) < 0)

let test_value_equal_hash () =
  Alcotest.(check bool) "equal across int/float" true
    (Value.equal (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check int) "hash consistent with equal"
    (Value.hash (Value.Int 3)) (Value.hash (Value.Float 3.0))

let test_value_parse () =
  Alcotest.(check value) "int" (Value.Int 42) (Value.of_raw "42");
  Alcotest.(check value) "float" (Value.Float 4.5) (Value.of_raw "4.5");
  Alcotest.(check value) "bool" (Value.Bool true) (Value.of_raw "true");
  Alcotest.(check value) "null" Value.Null (Value.of_raw "");
  Alcotest.(check value) "na" Value.Null (Value.of_raw "N/A");
  Alcotest.(check value) "string" (Value.String "abc") (Value.of_raw "abc")

let test_value_to_float () =
  Alcotest.(check (option (float 1e-9))) "int" (Some 3.0) (Value.to_float (Value.Int 3));
  Alcotest.(check (option (float 1e-9))) "bool" (Some 1.0) (Value.to_float (Value.Bool true));
  Alcotest.(check (option (float 1e-9))) "string" None (Value.to_float (Value.String "x"))

(* ------------------------------------------------------------------ *)
(* Schema *)

let test_schema_basic () =
  let s = Schema.make [ Schema.categorical "a"; Schema.numeric "b" ] in
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check int) "index a" 0 (Schema.index s "a");
  Alcotest.(check int) "index b" 1 (Schema.index s "b");
  Alcotest.(check bool) "mem" true (Schema.mem s "a");
  Alcotest.(check (option int)) "absent" None (Schema.index_opt s "zzz")

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Schema.make: duplicate column \"a\"") (fun () ->
      ignore (Schema.make [ Schema.categorical "a"; Schema.categorical "a" ]))

(* ------------------------------------------------------------------ *)
(* Column *)

let col_abc () =
  Column.of_list
    [ Value.String "a"; Value.String "b"; Value.String "a"; Value.String "c" ]

let test_column_encoding () =
  let c = col_abc () in
  Alcotest.(check int) "length" 4 (Column.length c);
  Alcotest.(check int) "cardinality" 3 (Column.cardinality c);
  Alcotest.(check int) "same code for equal values" (Column.code c 0) (Column.code c 2);
  Alcotest.(check value) "decode" (Value.String "b") (Column.get c 1)

let test_column_set () =
  let c = col_abc () in
  let c' = Column.set c 1 (Value.String "zzz") in
  Alcotest.(check value) "updated" (Value.String "zzz") (Column.get c' 1);
  Alcotest.(check value) "original untouched" (Value.String "b") (Column.get c 1);
  Alcotest.(check int) "dictionary grew" 4 (Column.cardinality c')

let test_column_mode_counts () =
  let c = col_abc () in
  Alcotest.(check value) "mode" (Value.String "a") (Option.get (Column.mode c));
  let counts = Column.counts c in
  Alcotest.(check int) "count of a" 2 counts.(Column.code c 0)

let test_column_select_take () =
  let c = col_abc () in
  let even = Column.select c (fun i -> i mod 2 = 0) in
  Alcotest.(check int) "selected length" 2 (Column.length even);
  Alcotest.(check value) "selected first" (Value.String "a") (Column.get even 0);
  let gathered = Column.take c [| 3; 3; 0 |] in
  Alcotest.(check int) "take length" 3 (Column.length gathered);
  Alcotest.(check value) "take dup" (Value.String "c") (Column.get gathered 1)

let test_column_append () =
  let a = Column.of_list [ Value.Int 1; Value.Int 2 ] in
  let b = Column.of_list [ Value.Int 2; Value.Int 9 ] in
  let c = Column.append a b in
  Alcotest.(check int) "length" 4 (Column.length c);
  Alcotest.(check int) "shared code" (Column.code c 1) (Column.code c 2);
  Alcotest.(check value) "new value" (Value.Int 9) (Column.get c 3)

(* ------------------------------------------------------------------ *)
(* Frame *)

let small_frame () =
  let schema =
    Schema.make
      [ Schema.categorical "city"; Schema.categorical "state"; Schema.numeric "pop" ]
  in
  Frame.of_rows schema
    [
      [| Value.String "berkeley"; Value.String "CA"; Value.Int 120 |];
      [| Value.String "oakland"; Value.String "CA"; Value.Int 400 |];
      [| Value.String "reno"; Value.String "NV"; Value.Int 250 |];
    ]

let test_frame_accessors () =
  let f = small_frame () in
  Alcotest.(check int) "nrows" 3 (Frame.nrows f);
  Alcotest.(check int) "ncols" 3 (Frame.ncols f);
  Alcotest.(check value) "get" (Value.String "CA") (Frame.get f 1 1);
  Alcotest.(check value) "get_by_name" (Value.Int 250) (Frame.get_by_name f 2 "pop")

let test_frame_filter () =
  let f = small_frame () in
  let ca =
    Frame.filter f (fun f i -> Value.equal (Frame.get f i 1) (Value.String "CA"))
  in
  Alcotest.(check int) "filtered rows" 2 (Frame.nrows ca);
  Alcotest.(check value) "row 1" (Value.String "oakland") (Frame.get ca 1 0)

let test_frame_project () =
  let f = small_frame () in
  let p = Frame.project f [ "state"; "city" ] in
  Alcotest.(check int) "cols" 2 (Frame.ncols p);
  Alcotest.(check value) "reordered" (Value.String "CA") (Frame.get p 0 0)

let test_frame_set () =
  let f = small_frame () in
  let f' = Frame.set f 0 0 (Value.String "albany") in
  Alcotest.(check value) "updated" (Value.String "albany") (Frame.get f' 0 0);
  Alcotest.(check value) "original" (Value.String "berkeley") (Frame.get f 0 0)

let test_frame_append () =
  let f = small_frame () in
  let g = Frame.append f f in
  Alcotest.(check int) "rows doubled" 6 (Frame.nrows g);
  Alcotest.(check value) "second copy" (Value.String "reno") (Frame.get g 5 0)

let test_frame_categorical_indices () =
  let f = small_frame () in
  Alcotest.(check (list int)) "categoricals" [ 0; 1 ] (Frame.categorical_indices f)

let test_frame_code_matrix () =
  let f = small_frame () in
  let m = Frame.code_matrix f in
  Alcotest.(check int) "columns" 3 (Array.length m);
  Alcotest.(check int) "shared state code" m.(1).(0) m.(1).(1)

(* ------------------------------------------------------------------ *)
(* CSV *)

let test_csv_roundtrip () =
  let f = small_frame () in
  let f' = Csv.of_string (Csv.to_string f) in
  Alcotest.(check int) "rows" (Frame.nrows f) (Frame.nrows f');
  Alcotest.(check (list string)) "names" (Frame.names f) (Frame.names f');
  for i = 0 to Frame.nrows f - 1 do
    for j = 0 to Frame.ncols f - 1 do
      Alcotest.(check value) "cell" (Frame.get f i j) (Frame.get f' i j)
    done
  done

let test_csv_quoting () =
  let text = "a,b\n\"x,1\",\"he said \"\"hi\"\"\"\nplain,2\n" in
  let f = Csv.of_string text in
  Alcotest.(check value) "embedded comma" (Value.String "x,1") (Frame.get f 0 0);
  Alcotest.(check value) "escaped quote" (Value.String "he said \"hi\"") (Frame.get f 0 1);
  Alcotest.(check value) "number sniffed" (Value.Int 2) (Frame.get f 1 1)

let test_csv_crlf () =
  let f = Csv.of_string "a,b\r\n1,x\r\n2,y\r\n" in
  Alcotest.(check int) "rows" 2 (Frame.nrows f);
  Alcotest.(check value) "cell" (Value.String "y") (Frame.get f 1 1)

let test_csv_ragged () =
  Alcotest.(check bool) "ragged raises" true
    (try
       ignore (Csv.of_string "a,b\n1\n");
       false
     with Csv.Parse_error _ -> true)

(* A ragged record is reported at the physical line it starts on. *)
let test_csv_ragged_line () =
  let line_of ?header text =
    match Csv.of_string ?header text with
    | _ -> Alcotest.fail "ragged record accepted"
    | exception Csv.Parse_error { line; _ } -> line
  in
  Alcotest.(check int) "with header" 2 (line_of "a,b\n1\n");
  Alcotest.(check int) "without header" 2 (line_of ~header:false "a,b\n1\n");
  Alcotest.(check int) "after a quoted newline" 4 (line_of "a,b\n\"x\ny\",1\n2\n");
  Alcotest.(check int) "spanning a quoted newline" 2 (line_of "a,b\n\"x\ny\"\n");
  Alcotest.(check int) "too many fields, CRLF" 3 (line_of "a,b\r\n1,2\r\n3,4,5\r\n")

let test_csv_float_digits () =
  let schema = Schema.make [ Schema.categorical "x" ] in
  let f =
    Frame.of_rows schema
      [ [| Value.Float (0.1 +. 0.2) |]; [| Value.Float 9007199254740992. |];
        [| Value.Float 1e300 |]; [| Value.Float (-0.5) |] ]
  in
  let back = Csv.of_string (Csv.to_string f) in
  List.iteri
    (fun i expected ->
      Alcotest.(check value) "cell" expected (Frame.get back i 0))
    [ Value.Float 0.30000000000000004; Value.Float 9007199254740992.;
      Value.Float 1e300; Value.Float (-0.5) ];
  Alcotest.(check string) "shortest digits" "x\n0.30000000000000004\n9007199254740992.\n1e+300\n-0.5\n"
    (Csv.to_string f)

let test_csv_unterminated () =
  Alcotest.(check bool) "unterminated raises" true
    (try
       ignore (Csv.parse_string "a,\"oops");
       false
     with Csv.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Split *)

let test_split_deterministic () =
  let p1 = Split.permutation ~seed:7 100 in
  let p2 = Split.permutation ~seed:7 100 in
  Alcotest.(check (array int)) "same seed same permutation" p1 p2;
  let p3 = Split.permutation ~seed:8 100 in
  Alcotest.(check bool) "different seed differs" true (p1 <> p3)

let test_split_partition () =
  let f = small_frame () in
  let big = Frame.append (Frame.append f f) f in
  let train, test = Split.train_test ~seed:3 ~train_fraction:0.67 big in
  Alcotest.(check int) "total preserved" (Frame.nrows big)
    (Frame.nrows train + Frame.nrows test);
  Alcotest.(check bool) "both non-empty" true
    (Frame.nrows train > 0 && Frame.nrows test > 0)

let test_split_permutation_is_bijection () =
  let p = Split.permutation ~seed:11 500 in
  let seen = Array.make 500 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "bijection" true (Array.for_all (fun b -> b) seen)

(* ------------------------------------------------------------------ *)
(* Column regression: batch update and append dictionary growth *)

let test_column_update_batch () =
  let c = col_abc () in
  let c' =
    Column.update c
      [ (0, Value.String "x"); (1, Value.String "y"); (3, Value.String "x") ]
  in
  Alcotest.(check value) "updated 0" (Value.String "x") (Column.get c' 0);
  Alcotest.(check value) "updated 1" (Value.String "y") (Column.get c' 1);
  Alcotest.(check value) "updated 3" (Value.String "x") (Column.get c' 3);
  Alcotest.(check value) "untouched" (Value.String "a") (Column.get c' 2);
  Alcotest.(check value) "original intact" (Value.String "a") (Column.get c 0);
  Alcotest.(check int) "fresh values deduped in dict" 5 (Column.cardinality c');
  Alcotest.(check int) "shared fresh code" (Column.code c' 0) (Column.code c' 3)

let test_column_append_dict () =
  (* appending a column with no new values must not grow the dictionary *)
  let a = Column.of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ] in
  let b = Column.of_list [ Value.Int 3; Value.Int 1 ] in
  let c = Column.append a b in
  Alcotest.(check int) "no new dict entries" 3 (Column.cardinality c);
  Alcotest.(check int) "remapped code" (Column.code c 2) (Column.code c 3);
  (* and new values are appended after the existing dictionary *)
  let d = Column.append a (Column.of_list [ Value.Int 9; Value.Int 9 ]) in
  Alcotest.(check int) "one new entry" 4 (Column.cardinality d);
  Alcotest.(check value) "new value decodes" (Value.Int 9) (Column.get d 4)

(* ------------------------------------------------------------------ *)
(* Group: the shared group-by kernel *)

(* Brute-force reference: dense first-occurrence group ids via an
   association list on full key tuples. *)
let ref_ids codes n =
  let key i = List.map (fun col -> col.(i)) codes in
  let seen = ref [] in
  let ids =
    Array.init n (fun i ->
        let k = key i in
        match List.assoc_opt k !seen with
        | Some g -> g
        | None ->
          let g = List.length !seen in
          seen := (k, g) :: !seen;
          g)
  in
  (ids, List.length !seen)

let check_csr g =
  let n = Group.n_rows g in
  let k = Group.n_groups g in
  let offsets = Group.offsets g in
  let rows = Group.row_index g in
  Alcotest.(check int) "offsets length" (k + 1) (Array.length offsets);
  Alcotest.(check int) "offsets start" 0 offsets.(0);
  Alcotest.(check int) "offsets end" n offsets.(k);
  for gid = 0 to k - 1 do
    Alcotest.(check bool) "offsets monotone" true (offsets.(gid) <= offsets.(gid + 1));
    for p = offsets.(gid) to offsets.(gid + 1) - 1 do
      Alcotest.(check int) "row id consistent" gid (Group.id g rows.(p));
      if p > offsets.(gid) then
        Alcotest.(check bool) "rows ascending" true (rows.(p - 1) < rows.(p))
    done
  done;
  let seen = Array.make n false in
  Array.iter (fun r -> seen.(r) <- true) rows;
  Alcotest.(check bool) "rows are a permutation" true (Array.for_all Fun.id seen)

let test_group_basic () =
  let c0 = [| 0; 1; 0; 1; 0 |] and c1 = [| 2; 0; 2; 1; 0 |] in
  let g = Group.make [ c0; c1 ] [ 2; 3 ] 5 in
  Alcotest.(check (array int)) "first-occurrence ids" [| 0; 1; 0; 2; 3 |] (Group.ids g);
  Alcotest.(check int) "n_groups" 4 (Group.n_groups g);
  Alcotest.(check (array int)) "counts" [| 2; 1; 1; 1 |] (Group.counts g);
  Alcotest.(check int) "size" 2 (Group.size g 0);
  Alcotest.(check int) "first_row" 0 (Group.first_row g 0);
  Alcotest.(check int) "first_row of late group" 4 (Group.first_row g 3);
  Alcotest.(check (array int)) "rows_of" [| 0; 2 |] (Group.rows_of g 0);
  check_csr g

let test_group_degenerate () =
  (* no columns: everything is one group *)
  let g = Group.make [] [] 3 in
  Alcotest.(check int) "one group" 1 (Group.n_groups g);
  Alcotest.(check (array int)) "all zero ids" [| 0; 0; 0 |] (Group.ids g);
  (* no rows *)
  let g0 = Group.make [ [||] ] [ 4 ] 0 in
  Alcotest.(check int) "empty has no groups" 0 (Group.n_groups g0);
  check_csr g0

(* The modes one [iter_modes] call reports: (group, counts, mode, count)
   per call, counts copied out of the shared scratch. *)
let modes_of g codes ~card =
  let seen = ref [] in
  Group.iter_modes g codes ~card (fun gid counts ~base ~mode ~count ->
      seen := (gid, Array.sub counts base card, mode, count) :: !seen);
  List.rev !seen

let test_group_modes () =
  let check_groups what = function
    | [ (0, h0, m0, k0); (1, h1, m1, k1); (2, h2, m2, k2) ] ->
      Alcotest.(check (array int)) (what ^ ": group 0 counts") [| 0; 2; 1 |] h0;
      Alcotest.(check (pair int int)) (what ^ ": group 0 mode") (1, 2) (m0, k0);
      Alcotest.(check (array int)) (what ^ ": group 1 counts") [| 2; 0; 0 |] h1;
      Alcotest.(check (pair int int)) (what ^ ": group 1 mode") (0, 2) (m1, k1);
      Alcotest.(check (array int)) (what ^ ": group 2 counts, a tie") [| 0; 1; 1 |] h2;
      Alcotest.(check (pair int int)) (what ^ ": tie goes to the lowest code") (1, 1) (m2, k2)
    | _ -> Alcotest.fail (what ^ ": one call per group, in id order")
  in
  let c0 = [| 0; 1; 0; 1; 0; 2; 2 |] in
  let v = [| 2; 0; 1; 0; 1; 2; 1 |] in
  (* 3 groups x 3 codes > 7 rows: the CSR walk *)
  check_groups "walk" (modes_of (Group.make [ c0 ] [ 3 ] 7) v ~card:3);
  (* a fourth group of five rows makes 4 groups x 3 codes <= 12 rows:
     the flat table; the extra group must not disturb the first three *)
  let c0 = Array.append c0 (Array.make 5 3) and v = Array.append v (Array.make 5 0) in
  match modes_of (Group.make [ c0 ] [ 4 ] 12) v ~card:3 with
  | [ a; b; c; (3, h3, m3, k3) ] ->
    check_groups "flat" [ a; b; c ];
    Alcotest.(check (array int)) "flat: group 3 counts" [| 5; 0; 0 |] h3;
    Alcotest.(check (pair int int)) "flat: group 3 mode" (0, 5) (m3, k3)
  | _ -> Alcotest.fail "flat: one call per group, in id order"

let test_group_strata () =
  (* the cardinality product with the historical max_strata give-up *)
  Alcotest.(check (option int)) "strata_count under cap" (Some 6)
    (Group.strata_count ~cap:100 [ 2; 3 ]);
  Alcotest.(check (option int)) "strata_count over cap" None
    (Group.strata_count ~cap:5 [ 2; 3 ])

let test_group_cache () =
  let frame = Csv.of_string "a,b,c\nx,p,u\ny,p,u\nx,q,u\ny,q,v\n" in
  let cache = Group.Cache.of_frame frame in
  let before =
    let snap = Obs.Metric.snapshot Obs.Metric.default in
    (List.assoc_opt "group.cache.hits" snap.Obs.Metric.counters,
     List.assoc_opt "group.cache.misses" snap.Obs.Metric.counters)
  in
  let g1 = Group.Cache.get cache [ 0; 2 ] in
  let g2 = Group.Cache.get cache [ 2; 0 ] in
  Alcotest.(check bool) "same key, same group (physically)" true (g1 == g2);
  Alcotest.(check int) "one entry" 1 (Group.Cache.length cache);
  let g3 = Group.Cache.get cache [ 1 ] in
  Alcotest.(check bool) "different key differs" true (g3 != g1);
  Alcotest.(check int) "two entries" 2 (Group.Cache.length cache);
  let after =
    let snap = Obs.Metric.snapshot Obs.Metric.default in
    (List.assoc_opt "group.cache.hits" snap.Obs.Metric.counters,
     List.assoc_opt "group.cache.misses" snap.Obs.Metric.counters)
  in
  let v o = Option.value ~default:0 o in
  (match (before, after) with
  | (h0, m0), (h1, m1) ->
    Alcotest.(check int) "one hit" 1 (v h1 - v h0);
    Alcotest.(check int) "two misses" 2 (v m1 - v m0))

let qcheck_codes =
  (* two code columns with small cardinalities, 1-40 rows *)
  QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 3) (int_bound 5)))

let columns_of_pairs rows =
  let n = List.length rows in
  let c0 = Array.of_list (List.map fst rows) in
  let c1 = Array.of_list (List.map snd rows) in
  (n, [ c0; c1 ], [ 4; 6 ])

let qcheck_group_paths_agree =
  QCheck.Test.make ~name:"mixed-radix and hashed paths assign equal ids" ~count:200
    qcheck_codes (fun rows ->
      let n, codes, cards = columns_of_pairs rows in
      let fast = Group.make ~cap:Group.default_cap codes cards n in
      let hashed = Group.make ~cap:1 codes cards n in
      Group.ids fast = Group.ids hashed
      && Group.counts fast = Group.counts hashed
      && Group.offsets fast = Group.offsets hashed
      && Group.row_index fast = Group.row_index hashed)

let qcheck_group_matches_reference =
  QCheck.Test.make ~name:"group ids match brute-force first-occurrence ids" ~count:200
    qcheck_codes (fun rows ->
      let n, codes, cards = columns_of_pairs rows in
      let g = Group.make codes cards n in
      let ids, k = ref_ids codes n in
      Group.ids g = ids && Group.n_groups g = k)

let qcheck_group_modes =
  (* card 6 mostly takes the flat table, card 50 the CSR walk *)
  QCheck.Test.make ~name:"group modes match brute-force counts" ~count:400
    QCheck.(pair qcheck_codes bool) (fun (rows, wide) ->
      let n, codes, cards = columns_of_pairs rows in
      let c0 = List.hd codes and c1 = List.nth codes 1 in
      let card = if wide then 50 else 6 in
      let g = Group.make [ c0 ] [ List.hd cards ] n in
      let seen = modes_of g c1 ~card in
      List.length seen = Group.n_groups g
      && List.for_all
           (fun (gid, counts, mode, count) ->
             let brute = Array.make card 0 in
             for i = 0 to n - 1 do
               if Group.id g i = gid then brute.(c1.(i)) <- brute.(c1.(i)) + 1
             done;
             let top = Array.fold_left max 0 brute in
             let lowest = ref (card - 1) in
             for v = card - 1 downto 0 do
               if brute.(v) = top then lowest := v
             done;
             counts = brute && count = top && mode = !lowest)
           seen
      && List.mapi (fun i (gid, _, _, _) -> i = gid) seen |> List.for_all Fun.id)

(* Random code columns against the eager oracle construction, on the
   radix path (default cap) and the hashed one (cap 1), at n = 0 and
   n = 1 as well as up to 300 rows; [card] 2 mostly takes [iter_modes]'
   flat table, [card] 40 its CSR walk. *)
let qcheck_group_oracle =
  let gen =
    QCheck.Gen.(
      let* n = oneof [ return 0; return 1; 0 -- 300 ] in
      let* d = 0 -- 3 in
      let* cards = list_repeat d (1 -- 7) in
      let* codes = flatten_l (List.map (fun c -> array_repeat n (0 -- (c - 1))) cards) in
      let* card = oneofl [ 2; 40 ] in
      let* modes = array_repeat n (0 -- (card - 1)) in
      let* hashed = bool in
      return (n, codes, cards, card, modes, hashed))
  in
  QCheck.Test.make ~name:"Group.make = eager oracle" ~count:500 (QCheck.make gen)
    (fun (n, codes, cards, card, modes, hashed) ->
      let cap = if hashed then 1 else Group.default_cap in
      let g = Group.make ~cap codes cards n in
      let o = Oracle.Group.make ~cap codes cards n in
      let ours =
        let seen = ref [] in
        Group.iter_modes g modes ~card (fun gid counts ~base ~mode ~count ->
            seen := (gid, Array.sub counts base card, mode, count) :: !seen);
        List.rev !seen
      in
      Group.ids g = o.Oracle.Group.ids
      && Group.n_groups g = o.Oracle.Group.n_groups
      && Group.offsets g = o.Oracle.Group.offsets
      && List.init (Group.n_groups g) (Group.first_row g)
         = List.init o.Oracle.Group.n_groups (Oracle.Group.first_row o)
      && Group.row_index g = o.Oracle.Group.rows
      && ours = Oracle.Group.modes o modes ~card)

(* Four domains force the row index of one cached grouping at once:
   they all get the one published array, equal to the oracle's, and
   only the publish that won counts. *)
let test_group_index_race () =
  let n = 5_000 in
  let codes = Array.init n (fun i -> (i * 7919) mod 97) in
  let frame =
    Frame.of_columns
      (Schema.make [ Schema.categorical "k" ])
      [ Column.of_values (Array.map (fun c -> Value.Int c) codes) ]
  in
  let cache = Group.Cache.of_frame frame in
  let g = Group.Cache.get cache [ 0 ] in
  let built () =
    Option.value ~default:0
      (List.assoc_opt "group.index.built"
         (Obs.Metric.snapshot Obs.Metric.default).Obs.Metric.counters)
  in
  let before = built () in
  let go = Atomic.make false in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            Group.row_index g))
  in
  Atomic.set go true;
  let indexes = List.map Domain.join domains in
  let expected =
    (Oracle.Group.make [ Frame.attr_codes frame 0 ] [ Frame.attr_card frame 0 ] n)
      .Oracle.Group.rows
  in
  List.iter
    (fun rows -> Alcotest.(check (array int)) "row index = oracle" expected rows)
    indexes;
  Alcotest.(check bool) "one published array" true
    (List.for_all (fun rows -> rows == List.hd indexes) indexes);
  Alcotest.(check bool) "later reads share it" true
    (Group.row_index (Group.Cache.get cache [ 0 ]) == List.hd indexes);
  Alcotest.(check int) "group.index.built counts once" 1 (built () - before)

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_value_roundtrip =
  QCheck.Test.make ~name:"value of_raw/to_string roundtrip on ints" ~count:200
    QCheck.int (fun i ->
      Value.equal (Value.Int i) (Value.of_raw (Value.to_string (Value.Int i))))

let qcheck_column_encoding =
  QCheck.Test.make ~name:"column decode inverts encode" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) small_int)
    (fun xs ->
      let values = List.map (fun i -> Value.Int i) xs in
      let c = Column.of_list values in
      List.for_all2 Value.equal values (Array.to_list (Column.to_values c)))

let qcheck_column_cardinality =
  QCheck.Test.make ~name:"column cardinality = distinct count" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 10))
    (fun xs ->
      let c = Column.of_list (List.map (fun i -> Value.Int i) xs) in
      Column.cardinality c = List.length (List.sort_uniq Int.compare xs))

let qcheck_csv_roundtrip =
  QCheck.Test.make ~name:"csv roundtrip on random string frames" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (pair (string_gen_of_size Gen.(1 -- 8) Gen.printable) small_int))
    (fun rows ->
      QCheck.assume (rows <> []);
      let schema = Schema.make [ Schema.categorical "s"; Schema.categorical "n" ] in
      let frame =
        Frame.of_rows schema
          (List.map (fun (s, n) -> [| Value.String s; Value.Int n |]) rows)
      in
      let back = Csv.of_string (Csv.to_string frame) in
      Frame.nrows back = Frame.nrows frame
      && List.for_all
           (fun i ->
             (* empty strings round-trip to Null; accept both *)
             let orig = Frame.get frame i 0 in
             let got = Frame.get back i 0 in
             Value.equal orig got
             || (Value.equal orig (Value.String "") && Value.is_null got)
             || Value.equal got (Value.of_raw (Value.to_string orig)))
           (List.init (Frame.nrows frame) (fun i -> i)))

(* Floats from raw bits (every exponent), from arithmetic (the digits
   %.12g drops), and integral ones past 1e15. *)
let finite_float_gen =
  QCheck.Gen.(
    map
      (fun f -> if Float.is_finite f then f else 0.25)
      (oneof
         [ map Int64.float_of_bits ui64;
           map2 ( +. ) (float_range (-1.) 1.) (float_range (-1.) 1.);
           map (fun i -> Float.of_int i *. 1024.) int ]))

let qcheck_csv_float_roundtrip =
  QCheck.Test.make ~name:"csv keeps finite floats bit for bit" ~count:200
    QCheck.(make ~print:Print.(list float) Gen.(list_size (1 -- 30) finite_float_gen))
    (fun xs ->
      let frame =
        Frame.of_rows (Schema.make [ Schema.numeric "x" ])
          (List.map (fun x -> [| Value.Float x |]) xs)
      in
      let back = Csv.of_string (Csv.to_string frame) in
      List.for_all
        (fun i ->
          match Frame.get frame i 0, Frame.get back i 0 with
          | Value.Float a, Value.Float b ->
            Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
          | _ -> false)
        (List.init (Frame.nrows frame) Fun.id))

let () =
  Alcotest.run "dataframe"
    [
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "equal and hash" `Quick test_value_equal_hash;
          Alcotest.test_case "parsing" `Quick test_value_parse;
          Alcotest.test_case "to_float" `Quick test_value_to_float;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basic" `Quick test_schema_basic;
          Alcotest.test_case "duplicate rejected" `Quick test_schema_duplicate;
        ] );
      ( "column",
        [
          Alcotest.test_case "encoding" `Quick test_column_encoding;
          Alcotest.test_case "functional set" `Quick test_column_set;
          Alcotest.test_case "mode and counts" `Quick test_column_mode_counts;
          Alcotest.test_case "select and take" `Quick test_column_select_take;
          Alcotest.test_case "append" `Quick test_column_append;
          Alcotest.test_case "batch update" `Quick test_column_update_batch;
          Alcotest.test_case "append dictionary growth" `Quick test_column_append_dict;
        ] );
      ( "frame",
        [
          Alcotest.test_case "accessors" `Quick test_frame_accessors;
          Alcotest.test_case "filter" `Quick test_frame_filter;
          Alcotest.test_case "project" `Quick test_frame_project;
          Alcotest.test_case "set" `Quick test_frame_set;
          Alcotest.test_case "append" `Quick test_frame_append;
          Alcotest.test_case "categorical indices" `Quick test_frame_categorical_indices;
          Alcotest.test_case "code matrix" `Quick test_frame_code_matrix;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "crlf" `Quick test_csv_crlf;
          Alcotest.test_case "ragged rejected" `Quick test_csv_ragged;
          Alcotest.test_case "unterminated rejected" `Quick test_csv_unterminated;
          Alcotest.test_case "ragged line numbers" `Quick test_csv_ragged_line;
          Alcotest.test_case "float digits" `Quick test_csv_float_digits;
        ] );
      ( "split",
        [
          Alcotest.test_case "deterministic" `Quick test_split_deterministic;
          Alcotest.test_case "partition" `Quick test_split_partition;
          Alcotest.test_case "permutation bijection" `Quick test_split_permutation_is_bijection;
        ] );
      ( "group",
        [
          Alcotest.test_case "basic" `Quick test_group_basic;
          Alcotest.test_case "degenerate" `Quick test_group_degenerate;
          Alcotest.test_case "modes" `Quick test_group_modes;
          Alcotest.test_case "strata semantics" `Quick test_group_strata;
          Alcotest.test_case "cache" `Quick test_group_cache;
          Alcotest.test_case "row index race, 4 domains" `Quick test_group_index_race;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_value_roundtrip; qcheck_column_encoding;
            qcheck_column_cardinality; qcheck_csv_roundtrip; qcheck_csv_float_roundtrip;
            qcheck_group_paths_agree; qcheck_group_matches_reference;
            qcheck_group_modes; qcheck_group_oracle ] );
    ]
