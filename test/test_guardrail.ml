(* Tests for the GUARDRAIL core: DSL semantics, pretty/parse round-trip,
   sketches (LNT/GNT), auxiliary distribution, Algorithm 1 (fill),
   Algorithm 2 (synthesis), the validator strategies and SQL export. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Frame = Dataframe.Frame
module Dsl = Guardrail.Dsl
module Semantics = Guardrail.Semantics
module Pretty = Guardrail.Pretty
module Parse = Guardrail.Parse
module Sketch = Guardrail.Sketch
module Auxdist = Guardrail.Auxdist
module Fill = Guardrail.Fill
module Synthesize = Guardrail.Synthesize
module Validator = Guardrail.Validator
module Sql_export = Guardrail.Sql_export
module Config = Guardrail.Config

let value = Alcotest.testable Value.pp Value.equal

let s v = Value.String v

(* Extract the literal of an equality test; the classic (pre-range) tests
   below only ever build Eq atoms and assignments. *)
let eq_value (t : Dsl.test) =
  match t with
  | Dsl.Eq v -> v
  | Dsl.Between _ | Dsl.Le _ | Dsl.Ge _ ->
    Alcotest.fail "expected an equality test"

let atom_value (a : Dsl.atom) = eq_value a.Dsl.test

(* The paper's running example: PostalCode decides City, City decides
   State, State decides Country. *)
let postal_rows =
  [
    [| s "94704"; s "Berkeley"; s "CA"; s "USA" |];
    [| s "94704"; s "Berkeley"; s "CA"; s "USA" |];
    [| s "94612"; s "Oakland"; s "CA"; s "USA" |];
    [| s "94612"; s "Oakland"; s "CA"; s "USA" |];
    [| s "89501"; s "Reno"; s "NV"; s "USA" |];
    [| s "89501"; s "Reno"; s "NV"; s "USA" |];
    [| s "69001"; s "Lyon"; s "ARA"; s "France" |];
    [| s "69001"; s "Lyon"; s "ARA"; s "France" |];
  ]

let postal_schema () =
  Schema.make
    [ Schema.categorical "postal_code"; Schema.categorical "city";
      Schema.categorical "state"; Schema.categorical "country" ]

let postal_frame () =
  (* replicate rows so statistics have support: 320 rows *)
  let rows = List.concat (List.init 40 (fun _ -> postal_rows)) in
  Frame.of_rows (postal_schema ()) rows


(* A noisy, randomized version of the postal data: deterministic tiled
   data is unfaithful (conditioning on a determinant makes the dependent
   constant) and gives the circular-shift sampler systematic pairs, so
   statistical tests (LNT/GNT, PC over the auxiliary distribution) use
   this frame instead. *)
let noisy_postal_frame ?(n = 2000) ?(noise = 0.1) () =
  let rng = Stat.Rng.create 2024 in
  let zips = [| "94704"; "94612"; "89501"; "69001" |] in
  let city_of = function
    | "94704" -> "Berkeley" | "94612" -> "Oakland" | "89501" -> "Reno"
    | _ -> "Lyon"
  in
  let state_of = function
    | "Berkeley" | "Oakland" -> "CA" | "Reno" -> "NV" | _ -> "ARA"
  in
  let country_of = function "CA" | "NV" -> "USA" | _ -> "France" in
  let cities = [| "Berkeley"; "Oakland"; "Reno"; "Lyon" |] in
  let states = [| "CA"; "NV"; "ARA" |] in
  let countries = [| "USA"; "France" |] in
  let flip arr v = if Stat.Rng.float rng < noise then arr.(Stat.Rng.int rng (Array.length arr)) else v in
  let rows =
    List.init n (fun _ ->
        let zip = zips.(Stat.Rng.int rng 4) in
        let city = flip cities (city_of zip) in
        let state = flip states (state_of city) in
        let country = flip countries (country_of state) in
        [| s zip; s city; s state; s country |])
  in
  Frame.of_rows (postal_schema ()) rows

(* GIVEN postal_code ON city with the four branches. *)
let postal_city_stmt () =
  let branch zip city =
    Dsl.branch ~condition:[ Dsl.eq 0 (s zip) ] ~assignment:(Dsl.Eq (s city))
  in
  Dsl.stmt ~given:[ 0 ] ~on:1
    ~branches:
      [ branch "94704" "Berkeley"; branch "94612" "Oakland";
        branch "89501" "Reno"; branch "69001" "Lyon" ]

let postal_prog () =
  let stmt2 =
    Dsl.stmt ~given:[ 1 ] ~on:2
      ~branches:
        [ Dsl.branch ~condition:[ Dsl.eq 1 (s "Berkeley") ]
            ~assignment:(Dsl.Eq (s "CA"));
          Dsl.branch ~condition:[ Dsl.eq 1 (s "Oakland") ]
            ~assignment:(Dsl.Eq (s "CA"));
          Dsl.branch ~condition:[ Dsl.eq 1 (s "Reno") ]
            ~assignment:(Dsl.Eq (s "NV"));
          Dsl.branch ~condition:[ Dsl.eq 1 (s "Lyon") ]
            ~assignment:(Dsl.Eq (s "ARA")) ]
  in
  let stmt3 =
    Dsl.stmt ~given:[ 2 ] ~on:3
      ~branches:
        [ Dsl.branch ~condition:[ Dsl.eq 2 (s "CA") ]
            ~assignment:(Dsl.Eq (s "USA"));
          Dsl.branch ~condition:[ Dsl.eq 2 (s "NV") ]
            ~assignment:(Dsl.Eq (s "USA"));
          Dsl.branch ~condition:[ Dsl.eq 2 (s "ARA") ]
            ~assignment:(Dsl.Eq (s "France")) ]
  in
  Dsl.prog ~schema:(postal_schema ()) [ postal_city_stmt (); stmt2; stmt3 ]

(* ------------------------------------------------------------------ *)
(* DSL construction *)

let test_dsl_validation () =
  Alcotest.(check bool) "empty given rejected" true
    (try ignore (Dsl.stmt ~given:[] ~on:1 ~branches:[]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "on in given rejected" true
    (try ignore (Dsl.stmt ~given:[ 1 ] ~on:1 ~branches:[]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "condition outside given rejected" true
    (try
       ignore
         (Dsl.stmt ~given:[ 0 ] ~on:1
            ~branches:
              [ Dsl.branch ~condition:[ Dsl.eq 2 (s "x") ]
                  ~assignment:(Dsl.Eq (s "y")) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate condition attr rejected" true
    (try
       ignore
         (Dsl.normalize_condition
            [ Dsl.eq 0 (s "a"); Dsl.eq 0 (s "b") ]);
       false
     with Invalid_argument _ -> true)

let test_dsl_counts () =
  let p = postal_prog () in
  Alcotest.(check int) "stmts" 3 (Dsl.stmt_count p);
  Alcotest.(check int) "branches" 11 (Dsl.branch_count p);
  Alcotest.(check (list int)) "constrained attrs" [ 1; 2; 3 ]
    (Dsl.constrained_attributes p)

(* ------------------------------------------------------------------ *)
(* Semantics *)

let test_eval_prog_fixpoint_on_clean () =
  (* [[p]]_t = t for every clean row (Eqn. 1 holds) *)
  let p = postal_prog () in
  let frame = postal_frame () in
  for i = 0 to Frame.nrows frame - 1 do
    let t = Frame.row frame i in
    let t' = Semantics.eval_prog p t in
    Alcotest.(check bool) "fixpoint" true (t = t')
  done

let test_eval_prog_repairs_error () =
  let p = postal_prog () in
  let t = [| s "94704"; s "gibbon"; s "CA"; s "USA" |] in
  let t' = Semantics.eval_prog p t in
  Alcotest.(check value) "city rewritten" (s "Berkeley") t'.(1);
  Alcotest.(check bool) "original differs" true (t <> t')

let test_branch_loss () =
  let frame = postal_frame () in
  let stmt = postal_city_stmt () in
  let b = List.hd stmt.Dsl.branches in
  let loss, support = Semantics.branch_loss frame stmt b in
  Alcotest.(check int) "no loss on clean data" 0 loss;
  Alcotest.(check int) "support counts matching rows" 80 support;
  let frame' = Frame.set frame 0 1 (s "gibbon") in
  let loss', support' = Semantics.branch_loss frame' stmt b in
  Alcotest.(check int) "one violation" 1 loss';
  Alcotest.(check int) "support unchanged" support support'

let test_coverage () =
  let frame = postal_frame () in
  let stmt = postal_city_stmt () in
  Alcotest.(check (float 1e-9)) "statement covers all rows" 1.0
    (Semantics.stmt_coverage frame stmt);
  let p = postal_prog () in
  Alcotest.(check (float 1e-9)) "program coverage = avg" 1.0
    (Semantics.prog_coverage frame p);
  Alcotest.(check (float 1e-9)) "empty program covers nothing" 0.0
    (Semantics.prog_coverage frame (Dsl.empty (postal_schema ())))

let test_epsilon_validity () =
  let frame = postal_frame () in
  let p = postal_prog () in
  Alcotest.(check bool) "valid at 0" true
    (Semantics.prog_epsilon_valid frame p ~epsilon:0.0);
  (* corrupt 3 rows of one branch (support 80): loss rate 3.75% *)
  let frame' =
    List.fold_left (fun f i -> Frame.set f i 1 (s "gibbon")) frame [ 0; 8; 16 ]
  in
  Alcotest.(check bool) "invalid at 1%" false
    (Semantics.prog_epsilon_valid frame' p ~epsilon:0.01);
  Alcotest.(check bool) "valid at 5%" true
    (Semantics.prog_epsilon_valid frame' p ~epsilon:0.05)

(* ------------------------------------------------------------------ *)
(* Pretty / Parse *)

let test_pretty_parse_roundtrip () =
  let p = postal_prog () in
  let text = Pretty.prog_to_string p in
  let p' = Parse.prog (postal_schema ()) text in
  Alcotest.(check bool) "roundtrip" true (Dsl.equal_prog p p')

let test_parse_literals () =
  let schema = Schema.make [ Schema.categorical "a"; Schema.categorical "b" ] in
  let p =
    Parse.prog schema
      "GIVEN a ON b HAVING IF a = 3 THEN b <- true; IF a = 4.5 THEN b <- NULL;"
  in
  let stmt = List.hd p.Dsl.stmts in
  Alcotest.(check int) "two branches" 2 (List.length stmt.Dsl.branches);
  let b1 = List.hd stmt.Dsl.branches in
  Alcotest.(check value) "int literal" (Value.Int 3)
    (atom_value (List.hd b1.Dsl.condition));
  Alcotest.(check value) "bool assignment" (Value.Bool true)
    (eq_value b1.Dsl.assignment)

let test_parse_errors () =
  let schema = Schema.make [ Schema.categorical "a"; Schema.categorical "b" ] in
  let fails text =
    try
      ignore (Parse.prog schema text);
      false
    with Parse.Error _ -> true
  in
  Alcotest.(check bool) "unknown attribute" true
    (fails "GIVEN zzz ON b HAVING IF zzz = 1 THEN b <- 2;");
  Alcotest.(check bool) "missing THEN" true
    (fails "GIVEN a ON b HAVING IF a = 1 b <- 2;");
  Alcotest.(check bool) "garbage" true (fails "HELLO WORLD")

(* ------------------------------------------------------------------ *)
(* Sketch *)

let test_sketch_of_dag () =
  let dag = Pgm.Dag.of_edges 3 [ (0, 1); (1, 2) ] in
  let sk = Sketch.of_dag dag in
  Alcotest.(check int) "two statements" 2 (List.length sk);
  let s1 = List.hd sk in
  Alcotest.(check (list int)) "given" [ 0 ] s1.Sketch.given;
  Alcotest.(check int) "on" 1 s1.Sketch.on

let test_lnt () =
  let frame = postal_frame () in
  Alcotest.(check bool) "postal -> city is LNT" true
    (Sketch.locally_non_trivial frame (Sketch.stmt_sketch ~given:[ 0 ] ~on:1));
  let rng = Stat.Rng.create 9 in
  let noise_col =
    Dataframe.Column.of_values
      (Array.init (Frame.nrows frame) (fun _ -> s (string_of_int (Stat.Rng.int rng 3))))
  in
  let schema =
    Schema.make
      [ Schema.categorical "postal_code"; Schema.categorical "city";
        Schema.categorical "state"; Schema.categorical "country";
        Schema.categorical "noise" ]
  in
  let frame' =
    Frame.of_columns schema (List.init 4 (Frame.column frame) @ [ noise_col ])
  in
  Alcotest.(check bool) "noise is not LNT" false
    (Sketch.locally_non_trivial frame' (Sketch.stmt_sketch ~given:[ 4 ] ~on:1))

let test_gnt_example_4_1 () =
  (* Example 4.1: {postal -> city, postal -> state, city -> state} is not
     GNT: postal is irrelevant to state given city *)
  let frame = noisy_postal_frame () in
  let p_bad =
    [ Sketch.stmt_sketch ~given:[ 0 ] ~on:1;
      Sketch.stmt_sketch ~given:[ 0 ] ~on:2;
      Sketch.stmt_sketch ~given:[ 1 ] ~on:2 ]
  in
  let violations = Sketch.gnt_violations frame p_bad in
  Alcotest.(check bool) "postal->state vanishes given city" true
    (List.exists
       (fun ((a : Sketch.stmt_sketch), (b : Sketch.stmt_sketch)) ->
         a.Sketch.given = [ 0 ] && a.Sketch.on = 2 && b.Sketch.given = [ 1 ])
       violations);
  let p_good =
    [ Sketch.stmt_sketch ~given:[ 0 ] ~on:1;
      Sketch.stmt_sketch ~given:[ 1 ] ~on:2;
      Sketch.stmt_sketch ~given:[ 2 ] ~on:3 ]
  in
  Alcotest.(check bool) "chain is GNT" true (Sketch.gnt_violations frame p_good = [])

let test_composite_codes () =
  let frame = postal_frame () in
  let codes, k = Sketch.composite_codes frame [ 0; 1 ] in
  Alcotest.(check int) "4 observed combinations" 4 k;
  Alcotest.(check int) "length" (Frame.nrows frame) (Array.length codes)

(* ------------------------------------------------------------------ *)
(* Auxiliary distribution *)

let test_auxdist_binary () =
  let frame = postal_frame () in
  let samples =
    Auxdist.circular_shift ~max_shifts:3 ~max_samples:Config.max_samples frame
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "4 columns" 4 (Array.length (Auxdist.columns samples));
  Array.iter
    (fun col ->
      Array.iter
        (fun v -> Alcotest.(check bool) "binary" true (v = 0 || v = 1))
        col)
    (Auxdist.columns samples);
  Alcotest.(check (list int)) "cards all 2" [ 2; 2; 2; 2 ] samples.Auxdist.cards

let test_auxdist_equality_semantics () =
  let schema = Schema.make [ Schema.categorical "a" ] in
  let frame =
    Frame.of_rows schema [ [| s "x" |]; [| s "y" |]; [| s "x" |]; [| s "y" |] ]
  in
  let samples = Auxdist.circular_shift ~max_shifts:2 ~max_samples:8 frame [ 0 ] in
  (* shift 1 pairs x/y (all different), shift 2 pairs x/x and y/y *)
  let col = (Auxdist.columns samples).(0) in
  Alcotest.(check int) "shift 1 all differ" 0 (col.(0) + col.(1) + col.(2) + col.(3));
  Alcotest.(check int) "shift 2 all equal" 4 (col.(4) + col.(5) + col.(6) + col.(7))

let test_auxdist_identity () =
  let frame = postal_frame () in
  let samples = Auxdist.identity frame [ 0; 1 ] in
  Alcotest.(check int) "sample count = rows" (Frame.nrows frame)
    samples.Auxdist.n_samples;
  Alcotest.(check (list int)) "cards from dictionaries" [ 4; 4 ] samples.Auxdist.cards

let test_auxdist_preserves_structure () =
  (* Proposition 5: PC over auxiliary samples recovers the postal chain
     skeleton *)
  let frame = noisy_postal_frame ~n:4000 () in
  let samples =
    Auxdist.circular_shift ~max_shifts:Config.max_shifts
      ~max_samples:Config.max_samples frame [ 0; 1; 2; 3 ]
  in
  let oracle =
    Auxdist.ci_oracle ~alpha:Config.default.Config.alpha
      ~max_strata:Config.max_strata ~min_effect:Config.min_effect samples
  in
  let cpdag, _ = Pgm.Pc.cpdag ~n:4 ~max_cond:Config.max_cond oracle in
  Alcotest.(check bool) "postal-city adjacent" true (Pgm.Pdag.adjacent cpdag 0 1);
  Alcotest.(check bool) "city-state adjacent" true (Pgm.Pdag.adjacent cpdag 1 2);
  Alcotest.(check bool) "state-country adjacent" true (Pgm.Pdag.adjacent cpdag 2 3);
  Alcotest.(check bool) "postal-state not adjacent" false (Pgm.Pdag.adjacent cpdag 0 2)

(* ------------------------------------------------------------------ *)
(* Fill (Algorithm 1) *)

let sort_branches (st : Dsl.stmt) =
  Dsl.stmt ~given:st.Dsl.given ~on:st.Dsl.on
    ~branches:
      (List.sort
         (fun (a : Dsl.branch) b ->
           Value.compare
             (atom_value (List.hd a.Dsl.condition))
             (atom_value (List.hd b.Dsl.condition)))
         st.Dsl.branches)

let test_fill_stmt_sketch () =
  let frame = postal_frame () in
  let sk = Sketch.stmt_sketch ~given:[ 0 ] ~on:1 in
  match Fill.fill_stmt_sketch frame ~epsilon:0.0 sk with
  | None -> Alcotest.fail "expected a filled statement"
  | Some filled ->
    Alcotest.(check int) "4 branches" 4 (List.length filled.Fill.stmt.Dsl.branches);
    Alcotest.(check (float 1e-9)) "full coverage" 1.0 filled.Fill.coverage;
    Alcotest.(check int) "zero loss" 0 filled.Fill.loss;
    Alcotest.(check bool) "matches ground truth" true
      (Dsl.equal_stmt
         (sort_branches (postal_city_stmt ()))
         (sort_branches filled.Fill.stmt))

let test_fill_epsilon_pruning () =
  let frame = postal_frame () in
  let frame = Frame.set frame 0 1 (s "gibbon") in
  let frame = Frame.set frame 8 1 (s "gibbon") in
  let sk = Sketch.stmt_sketch ~given:[ 0 ] ~on:1 in
  (match Fill.fill_stmt_sketch frame ~epsilon:0.0 sk with
   | Some filled ->
     Alcotest.(check int) "strict epsilon drops corrupted branch" 3
       (List.length filled.Fill.stmt.Dsl.branches)
   | None -> Alcotest.fail "expected statement");
  match Fill.fill_stmt_sketch frame ~epsilon:0.05 sk with
  | Some filled ->
    Alcotest.(check int) "loose epsilon keeps all" 4
      (List.length filled.Fill.stmt.Dsl.branches);
    Alcotest.(check int) "loss = corruptions" 2 filled.Fill.loss;
    let b =
      List.find
        (fun (b : Dsl.branch) ->
          Value.equal (atom_value (List.hd b.Dsl.condition)) (s "94704"))
        filled.Fill.stmt.Dsl.branches
    in
    Alcotest.(check value) "modal value wins" (s "Berkeley")
      (eq_value b.Dsl.assignment)
  | None -> Alcotest.fail "expected statement"

let test_fill_returns_none () =
  let schema = Schema.make [ Schema.categorical "a"; Schema.categorical "b" ] in
  let rng = Stat.Rng.create 123 in
  let rows =
    List.init 400 (fun i ->
        [| s (string_of_int (i mod 2)); s (string_of_int (Stat.Rng.int rng 8)) |])
  in
  let frame = Frame.of_rows schema rows in
  Alcotest.(check bool) "no epsilon-valid branch" true
    (Fill.fill_stmt_sketch frame ~epsilon:0.05
       (Sketch.stmt_sketch ~given:[ 0 ] ~on:1)
    = None)

let test_fill_prog_sketch () =
  let frame = postal_frame () in
  let groups = Dataframe.Group.Cache.of_frame frame in
  let sketch =
    [ Sketch.stmt_sketch ~given:[ 0 ] ~on:1;
      Sketch.stmt_sketch ~given:[ 1 ] ~on:2;
      Sketch.stmt_sketch ~given:[ 2 ] ~on:3 ]
  in
  let filled =
    List.filter_map (Fill.fill_stmt_sketch ~groups frame ~epsilon:0.0) sketch
  in
  Alcotest.(check int) "all statements filled" 3 (List.length filled);
  let prog =
    Dsl.prog ~schema:(Frame.schema frame) (List.map (fun f -> f.Fill.stmt) filled)
  in
  Alcotest.(check bool) "program is 0-valid" true
    (Semantics.prog_epsilon_valid frame prog ~epsilon:0.0)

(* ------------------------------------------------------------------ *)
(* Synthesis (Algorithm 2) *)

let test_synthesize_postal () =
  let frame = postal_frame () in
  let result = Synthesize.run ~config:Config.default frame in
  Alcotest.(check bool) "nonempty" true (Dsl.stmt_count result.Synthesize.program > 0);
  Alcotest.(check bool) "coverage high" true (result.Synthesize.coverage > 0.9);
  let corrupted = Frame.set frame 0 1 (s "gibbon") in
  let flags =
    Validator.detect (Validator.compile result.Synthesize.program) corrupted
  in
  Alcotest.(check bool) "corruption detected" true flags.(0);
  Alcotest.(check bool) "clean row not flagged" true (not flags.(1))

let test_synthesize_cache_effective () =
  let frame = postal_frame () in
  let result = Synthesize.run frame in
  if result.Synthesize.dag_count > 1 then
    Alcotest.(check bool) "cache hits occur across DAGs" true
      (result.Synthesize.cache_hits > 0)

let test_synthesize_empty_on_independent_data () =
  let schema = Schema.make [ Schema.categorical "a"; Schema.categorical "b" ] in
  let rng = Stat.Rng.create 321 in
  let rows =
    List.init 1000 (fun _ ->
        [| s (string_of_int (Stat.Rng.int rng 3));
           s (string_of_int (Stat.Rng.int rng 3)) |])
  in
  let frame = Frame.of_rows schema rows in
  let result = Synthesize.run frame in
  Alcotest.(check int) "no statements" 0 (Dsl.stmt_count result.Synthesize.program)

let test_synthesize_identity_vs_auxiliary () =
  (* on high-cardinality data the identity sampler collapses (Table 8) *)
  let schema = Schema.make [ Schema.categorical "a"; Schema.categorical "b" ] in
  let rng = Stat.Rng.create 55 in
  let rows =
    List.init 3000 (fun _ ->
        let a = Stat.Rng.int rng 150 in
        [| s (Printf.sprintf "a%d" a); s (Printf.sprintf "b%d" (a mod 97)) |])
  in
  let frame = Frame.of_rows schema rows in
  let aux = Synthesize.run ~config:Config.default frame in
  let ident =
    Synthesize.run ~config:(Config.make ~sampler:Config.Identity ()) frame
  in
  Alcotest.(check bool) "auxiliary finds structure" true
    (aux.Synthesize.coverage > 0.0);
  Alcotest.(check bool) "identity sampler is weaker" true
    (ident.Synthesize.coverage <= aux.Synthesize.coverage)

(* A frame too small to pair rows: [run] and [learn_cpdag] both fall
   back to the identity sampler instead of raising. *)
let test_synthesize_one_row () =
  let schema = Schema.make [ Schema.categorical "a"; Schema.categorical "b" ] in
  let frame = Frame.of_rows schema [ [| s "x"; s "y" |] ] in
  let r = Synthesize.run frame in
  Alcotest.(check int) "no statements" 0 (Dsl.stmt_count r.Synthesize.program);
  let cpdag = Synthesize.learn_cpdag frame [ 0; 1 ] in
  Alcotest.(check bool) "no edge" false (Pgm.Pdag.adjacent cpdag 0 1)

(* ------------------------------------------------------------------ *)
(* Golden synthesis output *)

(* MD5 of everything that identifies a synthesis result bit for bit
   (the program's text, coverage bits, DAG count, truncation and
   statement-cache hits and misses) for each benchmark dataset at 2,000
   rows, seed offset 1. Any changed CI decision, MEC, fill or tie-break
   moves a digest; re-record them only with a change meant to alter
   synthesized programs. *)
let golden =
  [
    (1, "c9f2989d2472ac76dc4ffbb160d3b4e2");
    (2, "ed7f3e47fb4e4cbe3d1761a515c79f11");
    (3, "31bd74d92dfe2b21914e620f67894706");
    (4, "b60274e71b3d026ab13bf9d7f35ab26c");
    (5, "7b315a59796c4ff2494d5d813ecf1299");
    (6, "e157686e9566c90c80b75fbada1e422f");
    (7, "469b795e173db51f4698ff3e883d7acf");
    (8, "2750c05c1fc6e78144a5a9e9accbf8b4");
    (9, "70006b5698f078c7d16bbc4c10435492");
    (10, "df486b2c165b9824b896a2a9d5aa34ca");
    (11, "41b62a6d531e7153f93f44677e5274d5");
    (12, "99f1f8cfdc589fc85b69156f0d3e5d54");
  ]

let test_golden_programs () =
  List.iter
    (fun (spec : Datagen.Spec.t) ->
      let _, frame = Datagen.Generate.dataset ~n_rows:2000 ~seed_offset:1 spec in
      let r = Synthesize.run frame in
      let fingerprint =
        Printf.sprintf "%s\ncoverage %Lx dags %d truncated %b hits %d misses %d"
          (Pretty.prog_to_string r.Synthesize.program)
          (Int64.bits_of_float r.Synthesize.coverage)
          r.Synthesize.dag_count r.Synthesize.truncated r.Synthesize.cache_hits
          r.Synthesize.cache_misses
      in
      Alcotest.(check string)
        (Printf.sprintf "dataset %d" spec.Datagen.Spec.id)
        (List.assoc spec.Datagen.Spec.id golden)
        (Digest.to_hex (Digest.string fingerprint)))
    Datagen.Spec.all

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report () =
  let frame = postal_frame () in
  let p = postal_prog () in
  let report = Guardrail.Report.of_program ~epsilon:0.05 p frame in
  Alcotest.(check int) "3 statements" 3
    (List.length report.Guardrail.Report.statements);
  Alcotest.(check (float 1e-9)) "program coverage" 1.0
    report.Guardrail.Report.program_coverage;
  Alcotest.(check int) "no loss on clean data" 0
    report.Guardrail.Report.program_loss;
  List.iter
    (fun r ->
      Alcotest.(check bool) "all valid" true r.Guardrail.Report.epsilon_valid;
      Alcotest.(check (float 1e-9)) "zero loss rate" 0.0
        (Guardrail.Report.loss_rate r))
    report.Guardrail.Report.statements

let test_report_flags_invalid () =
  let frame = postal_frame () in
  (* corrupt 10/80 rows of one branch: loss 12.5% fails epsilon 0.05 *)
  let frame =
    List.fold_left
      (fun f i -> Frame.set f i 1 (s "gibbon"))
      frame
      [ 0; 8; 16; 24; 32; 40; 48; 56; 64; 72 ]
  in
  let p = postal_prog () in
  let report = Guardrail.Report.of_program ~epsilon:0.05 p frame in
  Alcotest.(check bool) "invalid statement flagged" true
    (List.exists
       (fun r -> not r.Guardrail.Report.epsilon_valid)
       report.Guardrail.Report.statements)

(* ------------------------------------------------------------------ *)
(* Validator *)

let test_validator_detect_and_violations () =
  let p = Validator.compile (postal_prog ()) in
  let frame = postal_frame () in
  let corrupted = Frame.set frame 3 2 (s "TX") in
  let vs = Validator.violations p corrupted in
  Alcotest.(check bool) "violations found" true (List.length vs >= 1);
  let v = List.hd vs in
  Alcotest.(check int) "row" 3 v.Validator.row;
  Alcotest.(check value) "actual" (s "TX") v.Validator.actual;
  Alcotest.(check value) "expected" (s "CA") v.Validator.expected

let test_validator_strategies () =
  let p = Validator.compile (postal_prog ()) in
  let frame = postal_frame () in
  let corrupted = Frame.set frame 3 2 (s "TX") in
  let same, vs = Validator.handle ~strategy:Validator.Ignore p corrupted in
  Alcotest.(check value) "ignore leaves error" (s "TX") (Frame.get same 3 2);
  Alcotest.(check bool) "but reports" true (vs <> []);
  let coerced, _ = Validator.handle ~strategy:Validator.Coerce p corrupted in
  Alcotest.(check value) "coerce nulls" Value.Null (Frame.get coerced 3 2);
  let repaired, _ = Validator.handle ~strategy:Validator.Rectify p corrupted in
  Alcotest.(check value) "rectify repairs" (s "CA") (Frame.get repaired 3 2);
  Alcotest.(check bool) "repaired frame is clean" true
    (Validator.violations p repaired = []);
  Alcotest.(check bool) "raise raises" true
    (try
       ignore (Validator.handle ~strategy:Validator.Raise p corrupted);
       false
     with Validator.Violation_error _ -> true)

let test_validator_rebind () =
  let p = postal_prog () in
  let schema2 =
    Schema.make
      [ Schema.categorical "country"; Schema.categorical "state";
        Schema.categorical "city"; Schema.categorical "postal_code" ]
  in
  let p' = Validator.rebind p schema2 in
  let frame2 =
    Frame.of_rows schema2 [ [| s "USA"; s "CA"; s "gibbon"; s "94704" |] ]
  in
  let flags = Validator.detect (Validator.compile p') frame2 in
  Alcotest.(check bool) "rebound program detects" true flags.(0)

let test_validator_strategy_strings () =
  List.iter
    (fun st ->
      Alcotest.(check (option string)) "roundtrip"
        (Some (Validator.strategy_to_string st))
        (Option.map Validator.strategy_to_string
           (Validator.strategy_of_string (Validator.strategy_to_string st))))
    [ Validator.Raise; Validator.Ignore; Validator.Coerce; Validator.Rectify ]

(* ------------------------------------------------------------------ *)
(* SQL export *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_sql_export_violation_query () =
  let p = postal_prog () in
  let queries = Sql_export.prog_violation_queries ~table:"addresses" p in
  Alcotest.(check int) "one query per statement" 3 (List.length queries);
  let q = List.hd queries in
  Alcotest.(check bool) "selects from table" true
    (contains ~needle:"FROM \"addresses\"" q);
  Alcotest.(check bool) "tests the branch" true
    (contains ~needle:"\"postal_code\" = '94704'" q)

let test_sql_export_literal_quoting () =
  Alcotest.(check string) "string quoting" "'O''Brien'"
    (Sql_export.sql_literal (s "O'Brien"));
  Alcotest.(check string) "null" "NULL" (Sql_export.sql_literal Value.Null);
  Alcotest.(check string) "int" "42" (Sql_export.sql_literal (Value.Int 42));
  Alcotest.(check string) "ident quoting" "\"we\"\"ird\"" (Sql_export.quote_ident "we\"ird")

let test_sql_export_rectify_case () =
  let p = postal_prog () in
  let stmt = List.hd p.Dsl.stmts in
  let case = Sql_export.stmt_rectify_case (postal_schema ()) stmt in
  Alcotest.(check bool) "CASE form" true (String.sub case 0 4 = "CASE");
  Alcotest.(check bool) "has WHEN" true (contains ~needle:"WHEN" case);
  Alcotest.(check bool) "falls back to column" true
    (contains ~needle:"ELSE \"city\" END" case)

(* ------------------------------------------------------------------ *)
(* Properties *)

let literal_gen =
  QCheck.Gen.(
    oneof
      [ map (fun i -> Value.Int i) small_int;
        map (fun b -> Value.Bool b) bool;
        map (fun s' -> Value.String s') (string_size ~gen:(char_range 'a' 'z') (1 -- 8)) ])

let qcheck_pretty_parse_roundtrip =
  QCheck.Test.make ~name:"pretty/parse roundtrip on random programs" ~count:100
    (QCheck.make
       QCheck.Gen.(
         let* n_branches = 1 -- 5 in
         list_size (return n_branches) (pair literal_gen literal_gen)))
    (fun pairs ->
      let schema = Schema.make [ Schema.categorical "a"; Schema.categorical "b" ] in
      let seen = Hashtbl.create 8 in
      let branches =
        List.filter_map
          (fun (c, v) ->
            if Hashtbl.mem seen c then None
            else begin
              Hashtbl.add seen c ();
              Some (Dsl.branch ~condition:[ Dsl.eq 0 (c) ] ~assignment:(Dsl.Eq v))
            end)
          pairs
      in
      QCheck.assume (branches <> []);
      let p = Dsl.prog ~schema [ Dsl.stmt ~given:[ 0 ] ~on:1 ~branches ] in
      let p' = Parse.prog schema (Pretty.prog_to_string p) in
      Dsl.equal_prog p p')

let qcheck_rectify_fixpoint =
  QCheck.Test.make ~name:"rectified frames have no violations" ~count:30
    QCheck.(pair (int_bound 319) (int_bound 2))
    (fun (row, col) ->
      let p = Validator.compile (postal_prog ()) in
      let frame = postal_frame () in
      let col = col + 1 in
      let corrupted = Frame.set frame row col (s "JUNK") in
      let repaired, _ = Validator.handle ~strategy:Validator.Rectify p corrupted in
      Validator.violations p repaired = [])

let qcheck_fill_always_valid =
  QCheck.Test.make ~name:"Alg.1 output is always epsilon-valid" ~count:40
    QCheck.(pair (float_bound_inclusive 0.2) (int_bound 1000))
    (fun (epsilon, seed) ->
      (* random noisy two-column frame *)
      let rng = Stat.Rng.create seed in
      let rows =
        List.init 300 (fun _ ->
            let a = Stat.Rng.int rng 4 in
            let b = if Stat.Rng.float rng < 0.15 then Stat.Rng.int rng 4 else a in
            [| s (string_of_int a); s (string_of_int b) |])
      in
      let schema = Schema.make [ Schema.categorical "a"; Schema.categorical "b" ] in
      let frame = Frame.of_rows schema rows in
      match
        Fill.fill_stmt_sketch frame ~epsilon (Sketch.stmt_sketch ~given:[ 0 ] ~on:1)
      with
      | None -> true
      | Some filled ->
        Semantics.stmt_epsilon_valid frame filled.Fill.stmt ~epsilon
        && filled.Fill.coverage >= 0.0
        && filled.Fill.coverage <= 1.0)

let qcheck_path_mec_size =
  QCheck.Test.make ~name:"MEC of an n-path has n members" ~count:20
    QCheck.(int_range 2 7)
    (fun n ->
      let path = Pgm.Dag.of_edges n (List.init (n - 1) (fun i -> (i, i + 1))) in
      let cpdag, _ = Pgm.Pc.cpdag ~n ~max_cond:3 (Pgm.Dsep.oracle path) in
      let dags, truncated =
        Pgm.Enumerate.consistent_extensions ~max_dags:Config.max_dags cpdag
      in
      (not truncated) && List.length dags = n)

let qcheck_eval_idempotent =
  QCheck.Test.make ~name:"program evaluation is idempotent" ~count:50
    QCheck.(pair (int_bound 319) (make literal_gen))
    (fun (row, junk) ->
      let p = postal_prog () in
      let frame = postal_frame () in
      let t = Frame.row frame row in
      t.(1) <- junk;
      let once = Semantics.eval_prog p t in
      let twice = Semantics.eval_prog p once in
      once = twice)

let () =
  Alcotest.run "guardrail"
    [
      ( "dsl",
        [
          Alcotest.test_case "validation" `Quick test_dsl_validation;
          Alcotest.test_case "counts" `Quick test_dsl_counts;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "fixpoint on clean data" `Quick test_eval_prog_fixpoint_on_clean;
          Alcotest.test_case "repairs errors" `Quick test_eval_prog_repairs_error;
          Alcotest.test_case "branch loss" `Quick test_branch_loss;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "epsilon validity" `Quick test_epsilon_validity;
        ] );
      ( "syntax",
        [
          Alcotest.test_case "roundtrip" `Quick test_pretty_parse_roundtrip;
          Alcotest.test_case "literals" `Quick test_parse_literals;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "of_dag" `Quick test_sketch_of_dag;
          Alcotest.test_case "LNT" `Quick test_lnt;
          Alcotest.test_case "GNT (Example 4.1)" `Quick test_gnt_example_4_1;
          Alcotest.test_case "composite codes" `Quick test_composite_codes;
        ] );
      ( "auxdist",
        [
          Alcotest.test_case "binary samples" `Quick test_auxdist_binary;
          Alcotest.test_case "equality semantics" `Quick test_auxdist_equality_semantics;
          Alcotest.test_case "identity sampler" `Quick test_auxdist_identity;
          Alcotest.test_case "preserves CI structure" `Quick test_auxdist_preserves_structure;
        ] );
      ( "fill",
        [
          Alcotest.test_case "fills ground truth" `Quick test_fill_stmt_sketch;
          Alcotest.test_case "epsilon pruning" `Quick test_fill_epsilon_pruning;
          Alcotest.test_case "returns bottom" `Quick test_fill_returns_none;
          Alcotest.test_case "whole sketch" `Quick test_fill_prog_sketch;
        ] );
      ( "synthesize",
        [
          Alcotest.test_case "postal chain end-to-end" `Quick test_synthesize_postal;
          Alcotest.test_case "statement cache" `Quick test_synthesize_cache_effective;
          Alcotest.test_case "independent data" `Quick test_synthesize_empty_on_independent_data;
          Alcotest.test_case "identity vs auxiliary" `Quick test_synthesize_identity_vs_auxiliary;
          Alcotest.test_case "one-row frame" `Quick test_synthesize_one_row;
        ] );
      ( "golden",
        [ Alcotest.test_case "12 datasets" `Quick test_golden_programs ] );
      ( "report",
        [
          Alcotest.test_case "clean data" `Quick test_report;
          Alcotest.test_case "flags invalid" `Quick test_report_flags_invalid;
        ] );
      ( "validator",
        [
          Alcotest.test_case "detect and violations" `Quick test_validator_detect_and_violations;
          Alcotest.test_case "four strategies" `Quick test_validator_strategies;
          Alcotest.test_case "rebind" `Quick test_validator_rebind;
          Alcotest.test_case "strategy strings" `Quick test_validator_strategy_strings;
        ] );
      ( "sql_export",
        [
          Alcotest.test_case "violation query" `Quick test_sql_export_violation_query;
          Alcotest.test_case "literal quoting" `Quick test_sql_export_literal_quoting;
          Alcotest.test_case "rectify case" `Quick test_sql_export_rectify_case;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_pretty_parse_roundtrip; qcheck_rectify_fixpoint;
            qcheck_eval_idempotent; qcheck_fill_always_valid;
            qcheck_path_mec_size ] );
    ]
