(* Differential tests for the streaming-ingest stack: versioned frame
   snapshots and deltas, incremental group / contingency maintenance
   checked bit-for-bit against batch recomputation (qcheck), N appends
   followed by synthesis giving the identical program to a batch build
   at every job count, and drift precision — corrupting one ON column
   flips exactly that statement's GIVEN set stale, nothing else. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Group = Dataframe.Group
module Column = Dataframe.Column
module Csv = Dataframe.Csv
module Contingency = Stat.Contingency

(* ------------------------------------------------------------------ *)
(* Snapshot / Delta invariants *)

let base_csv = "a,b\nx,1\ny,2\nx,1\n"
let delta_csv = "a,b\nz,3\ny,2\n"

let test_snapshot_identity () =
  let base = Csv.of_string base_csv in
  let other = Csv.of_string base_csv in
  Alcotest.(check int) "fresh frame starts at epoch 0" 0
    (Frame.Snapshot.epoch base);
  Alcotest.(check bool) "distinct builds are distinct lineages" false
    (Frame.Snapshot.id base = Frame.Snapshot.id other);
  (* every derived frame mints a fresh id: epoch-keyed caches must
     never confuse it with its source *)
  let derived =
    [ ("take", Frame.take base [| 0; 1 |]);
      ("filter", Frame.filter base (fun _ i -> i < 2));
      ("project", Frame.project base [ "a" ]);
      ("append", Frame.append base (Csv.of_string delta_csv));
      ("set", Frame.set base 0 0 (Value.string "q"));
      ("set_cells", Frame.set_cells base [ (0, 0, Value.string "q") ]) ]
  in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mints a fresh id" name)
        false
        (Frame.Snapshot.id f = Frame.Snapshot.id base))
    derived

let test_extend_delta () =
  let base = Csv.of_string base_csv in
  let grown = Frame.extend base (Csv.of_string delta_csv) in
  Alcotest.(check int) "extend keeps the lineage id" (Frame.Snapshot.id base)
    (Frame.Snapshot.id grown);
  Alcotest.(check int) "extend bumps the epoch" 1 (Frame.Snapshot.epoch grown);
  Alcotest.(check bool) "same_lineage" true
    (Frame.Snapshot.same_lineage base grown);
  Alcotest.(check bool) "own epoch is Unchanged" true
    (Frame.Delta.since grown ~epoch:1 = Frame.Delta.Unchanged);
  (match Frame.Delta.since grown ~epoch:0 with
   | Frame.Delta.Rows_appended { base_rows } ->
     Alcotest.(check int) "delta knows the base rows" 3 base_rows
   | d -> Alcotest.failf "expected Rows_appended, got %a" Frame.Delta.pp d);
  (* a second extend chains: epoch 0 still answers with the original
     base row count *)
  let grown2 = Frame.extend grown (Csv.of_string delta_csv) in
  (match Frame.Delta.since grown2 ~epoch:0 with
   | Frame.Delta.Rows_appended { base_rows } ->
     Alcotest.(check int) "two-step delta from epoch 0" 3 base_rows
   | d -> Alcotest.failf "expected Rows_appended, got %a" Frame.Delta.pp d);
  Alcotest.(check int) "rows accumulated" 7 (Frame.nrows grown2)

let test_update_cells_rebuilds () =
  let base = Csv.of_string base_csv in
  let grown = Frame.extend base (Csv.of_string delta_csv) in
  let edited = Frame.update_cells grown [ (0, 0, Value.string "z") ] in
  Alcotest.(check int) "update keeps the lineage id" (Frame.Snapshot.id base)
    (Frame.Snapshot.id edited);
  Alcotest.(check int) "update bumps the epoch" 2 (Frame.Snapshot.epoch edited);
  Alcotest.(check bool) "pre-update epochs answer Rebuilt" true
    (Frame.Delta.since edited ~epoch:0 = Frame.Delta.Rebuilt
     && Frame.Delta.since edited ~epoch:1 = Frame.Delta.Rebuilt);
  Alcotest.(check bool) "own epoch stays Unchanged" true
    (Frame.Delta.since edited ~epoch:2 = Frame.Delta.Unchanged);
  (* appends after the update are append-only again *)
  let regrown = Frame.extend edited (Csv.of_string delta_csv) in
  (match Frame.Delta.since regrown ~epoch:2 with
   | Frame.Delta.Rows_appended { base_rows } ->
     Alcotest.(check int) "post-update append delta" 5 base_rows
   | d -> Alcotest.failf "expected Rows_appended, got %a" Frame.Delta.pp d)

let test_epoch_window_bounded () =
  (* the delta log keeps a bounded window: far-enough-back epochs must
     degrade to Rebuilt, never answer wrong *)
  let f = ref (Csv.of_string base_csv) in
  for _ = 1 to 80 do
    f := Frame.extend !f (Csv.of_string delta_csv)
  done;
  Alcotest.(check bool) "ancient epoch answers Rebuilt" true
    (Frame.Delta.since !f ~epoch:0 = Frame.Delta.Rebuilt);
  (match Frame.Delta.since !f ~epoch:79 with
   | Frame.Delta.Rows_appended { base_rows } ->
     Alcotest.(check int) "recent epoch still answers" (3 + (79 * 2)) base_rows
   | d -> Alcotest.failf "expected Rows_appended, got %a" Frame.Delta.pp d)

(* extend is bit-identical to batch-building the concatenated table:
   same codes, same dictionary order, same rendered CSV *)
let test_extend_bit_identical_to_batch () =
  let base = Csv.of_string base_csv in
  let grown = Frame.extend base (Csv.of_string delta_csv) in
  let batch = Csv.of_string (base_csv ^ "z,3\ny,2\n") in
  Alcotest.(check string) "rendered CSV identical" (Csv.to_string batch)
    (Csv.to_string grown);
  Alcotest.(check bool) "code matrix identical" true
    (Frame.code_matrix batch = Frame.code_matrix grown);
  Alcotest.(check bool) "cardinalities identical" true
    (Frame.cardinalities batch = Frame.cardinalities grown)

(* ------------------------------------------------------------------ *)
(* Incremental group / contingency maintenance (qcheck differential) *)

(* base and delta rows over two small-cardinality code columns *)
let qcheck_split_codes =
  QCheck.(
    pair
      (list_of_size Gen.(1 -- 30) (pair (int_bound 3) (int_bound 4)))
      (list_of_size Gen.(0 -- 30) (pair (int_bound 3) (int_bound 4))))

let columns_of_pairs rows =
  let c0 = Array.of_list (List.map fst rows) in
  let c1 = Array.of_list (List.map snd rows) in
  (List.length rows, [ c0; c1 ])

let qcheck_group_extend_agrees =
  QCheck.Test.make
    ~name:"Group.extend over a delta equals Group.make over the whole"
    ~count:300 qcheck_split_codes (fun (base, delta) ->
      let n, codes = columns_of_pairs (base @ delta) in
      let nb, _ = columns_of_pairs base in
      let cards = [ 4; 5 ] in
      List.for_all
        (fun cap ->
          let whole = Group.make ~cap codes cards n in
          let base_g =
            Group.make ~cap (List.map (fun c -> Array.sub c 0 nb) codes) cards
              nb
          in
          let extended = Group.extend base_g codes n in
          Group.ids whole = Group.ids extended
          && Group.counts whole = Group.counts extended
          && Group.offsets whole = Group.offsets extended
          && Group.row_index whole = Group.row_index extended)
        (* both the mixed-radix and the hashed grouping paths *)
        [ Group.default_cap; 1 ])

let qcheck_contingency_extend_agrees =
  QCheck.Test.make
    ~name:"Contingency.extend over a delta equals two_way over the whole"
    ~count:300 qcheck_split_codes (fun (base, delta) ->
      let n, codes = columns_of_pairs (base @ delta) in
      let nb, _ = columns_of_pairs base in
      let xs, ys =
        match codes with [ a; b ] -> (a, b) | _ -> assert false
      in
      let kx = 4 and ky = 5 in
      let whole = Contingency.two_way ~kx ~ky xs ys in
      let base_t =
        Contingency.two_way ~kx ~ky (Array.sub xs 0 nb) (Array.sub ys 0 nb)
      in
      let extended = Contingency.extend base_t ~kx ~ky xs ys ~base:nb in
      ignore n;
      whole = extended)

let test_group_cache_advance () =
  let base = Csv.of_string "a,b,c\nx,1,p\ny,2,q\nx,1,p\ny,1,q\n" in
  let cache = Group.Cache.of_frame base in
  Alcotest.(check (option (pair int int))) "cache carries the snapshot key"
    (Some (Frame.Snapshot.key base))
    (Group.Cache.frame_key cache);
  let g_base = Group.Cache.get cache [ 0; 1 ] in
  let grown = Frame.extend base (Csv.of_string "a,b,c\nz,3,p\nx,2,q\n") in
  (* small delta: the cache advances by extending every cached entry *)
  let advanced = Group.Cache.advance cache grown in
  Alcotest.(check (option (pair int int))) "advanced cache re-keys"
    (Some (Frame.Snapshot.key grown))
    (Group.Cache.frame_key advanced);
  let g_inc = Group.Cache.get advanced [ 0; 1 ] in
  let g_scratch = Group.Cache.get (Group.Cache.of_frame grown) [ 0; 1 ] in
  Alcotest.(check bool) "advanced ids equal scratch rebuild" true
    (Group.ids g_inc = Group.ids g_scratch);
  Alcotest.(check bool) "base prefix of ids unchanged" true
    (Array.sub (Group.ids g_inc) 0 (Frame.nrows base) = Group.ids g_base);
  (* unchanged frame: advance is the identity *)
  Alcotest.(check bool) "same snapshot, same cache" true
    (Group.Cache.advance advanced grown == advanced);
  (* a huge delta trips the rebuild threshold instead of extending *)
  let big =
    Frame.extend base
      (Csv.of_string
         ("a,b,c\n" ^ String.concat "" (List.init 40 (fun _ -> "w,9,r\n"))))
  in
  let rebuilt = Group.Cache.advance cache big in
  let g_big = Group.Cache.get rebuilt [ 0; 1 ] in
  let g_big_scratch = Group.Cache.get (Group.Cache.of_frame big) [ 0; 1 ] in
  Alcotest.(check bool) "rebuild path still agrees" true
    (Group.ids g_big = Group.ids g_big_scratch)

(* ------------------------------------------------------------------ *)
(* Daemon ingest differential: a registered table validates on its
   ingest state's group cache, which APPEND advances and UPDATE
   rebuilds. After every step of a random APPEND/UPDATE sequence the
   DETECT and RECTIFY replies must equal a fresh compilation run over a
   fresh frame of the same rows. *)

module P = Service.Protocol

let ingest_columns = [ "k"; "g"; "y"; "z" ]

(* GIVEN k ON y and GIVEN g,k ON y lower to TABLE ops (more distinct
   expects than the mask forms take), GIVEN g ON z to a mask chain *)
let ingest_program =
  let k_branches =
    List.init 10 (fun i ->
        Printf.sprintf "  IF k = \"k%d\" THEN y <- \"y%d\";\n" i i)
  in
  let gk_branches =
    List.init 6 (fun i ->
        Printf.sprintf "  IF g = \"g%d\" AND k = \"k%d\" THEN y <- \"y%d\";\n"
          (i mod 3) i ((i + 1) mod 10))
  in
  String.concat ""
    ([ "GIVEN k ON y HAVING\n" ] @ k_branches
     @ [ "GIVEN g ON z HAVING\n";
         "  IF g = \"g0\" THEN z <- \"z0\";\n";
         "  IF g = \"g1\" THEN z <- \"z1\";\n";
         "GIVEN g, k ON y HAVING\n" ]
     @ gk_branches)

(* Mostly rows that satisfy GIVEN k ON y; the occasional stray value
   (including ones no dictionary holds yet) makes violations and forces
   a re-lowering. *)
let ingest_value rng col =
  let pick n prefix = Printf.sprintf "%s%d" prefix (Stat.Rng.int rng n) in
  if Stat.Rng.int rng 8 = 0 then pick 12 (String.sub col 0 1 ^ "x")
  else
    match col with
    | "k" -> pick 10 "k"
    | "g" -> pick 3 "g"
    | "y" -> pick 10 "y"
    | _ -> pick 2 "z"

let ingest_row rng =
  let k = Stat.Rng.int rng 10 in
  Array.of_list
    (List.map
       (fun col ->
         if col = "k" then Printf.sprintf "k%d" k
         else if col = "y" && Stat.Rng.int rng 4 <> 0 then Printf.sprintf "y%d" k
         else ingest_value rng col)
       ingest_columns)

let ingest_csv rows =
  String.concat ""
    (List.map (fun r -> String.concat "," r ^ "\n")
       (ingest_columns :: List.map Array.to_list rows))

let load_ingest_table srv rows =
  match
    Service.Server.handle_request srv
      (P.Load
         { table = "t"; csv = ingest_csv rows; program = Some ingest_program;
           model_label = None })
  with
  | P.Loaded _ -> ()
  | _ -> Alcotest.fail "load failed"

let ingest_entry srv =
  match Service.Registry.find (Service.Server.registry srv) "t" with
  | Some e -> e
  | None -> Alcotest.fail "table vanished"

(* DETECT and RECTIFY over the registered table against a fresh
   compilation over a fresh frame of [rows]; true iff both agree *)
let replies_match srv rows =
  let fresh =
    Frame.of_rows
      (Frame.schema (ingest_entry srv).Service.Registry.frame)
      (List.map (Array.map Value.of_raw) rows)
  in
  let compiled =
    Guardrail.Validator.compile
      (Guardrail.Parse.prog (Frame.schema fresh) ingest_program)
  in
  let flags = Guardrail.Validator.detect compiled fresh in
  let repaired, vs =
    Guardrail.Validator.handle ~strategy:Guardrail.Validator.Rectify compiled
      fresh
  in
  let detect_ok =
    match Service.Server.handle_request srv (P.Detect { table = "t"; csv = None }) with
    | P.Detections d -> d.flags = flags
    | _ -> false
  in
  let rectify_ok =
    match
      Service.Server.handle_request srv
        (P.Rectify
           { table = "t"; strategy = Guardrail.Validator.Rectify; csv = None })
    with
    | P.Rectified r ->
      r.csv = Csv.to_string repaired && r.violations = List.length vs
    | _ -> false
  in
  detect_ok && rectify_ok

let qcheck_daemon_ingest_matches_fresh =
  QCheck.Test.make ~name:"daemon append/update = fresh compile" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Stat.Rng.create seed in
      let srv = Service.Server.create (Service.Registry.create ()) in
      let rows = ref (List.init (20 + Stat.Rng.int rng 30) (fun _ -> ingest_row rng)) in
      load_ingest_table srv !rows;
      let ok = ref (replies_match srv !rows) in
      for _ = 1 to 6 do
        if Stat.Rng.int rng 2 = 0 then begin
          (* small appends extend the groupings, large ones rebuild *)
          let added = List.init (1 + Stat.Rng.int rng 30) (fun _ -> ingest_row rng) in
          (match
             Service.Server.handle_request srv
               (P.Append { table = "t"; csv = ingest_csv added })
           with
           | P.Ingested _ -> ()
           | _ -> QCheck.Test.fail_report "append failed");
          rows := !rows @ added
        end
        else begin
          let arr = Array.of_list (List.map Array.copy !rows) in
          let edits =
            List.init (1 + Stat.Rng.int rng 3) (fun _ ->
                let j = Stat.Rng.int rng 4 in
                let v = ingest_value rng (List.nth ingest_columns j) in
                (Stat.Rng.int rng (Array.length arr), j, v))
          in
          let cells =
            List.map (fun (row, j, v) -> (row, List.nth ingest_columns j, v)) edits
          in
          (match Service.Server.handle_request srv (P.Update { table = "t"; cells }) with
           | P.Ingested _ -> ()
           | _ -> QCheck.Test.fail_report "update failed");
          List.iter (fun (row, j, v) -> arr.(row).(j) <- v) edits;
          rows := Array.to_list arr
        end;
        ok := !ok && replies_match srv !rows
      done;
      Service.Server.shutdown srv;
      !ok)

(* One APPEND extends each grouping of the table's single group cache
   exactly once: validation and ingest statistics share it. *)
let test_append_extends_one_cache () =
  let rng = Stat.Rng.create 5 in
  let srv = Service.Server.create (Service.Registry.create ()) in
  load_ingest_table srv (List.init 80 (fun _ -> ingest_row rng));
  (match Service.Server.handle_request srv (P.Detect { table = "t"; csv = None }) with
   | P.Detections _ -> ()
   | _ -> Alcotest.fail "detect failed");
  let groups =
    Service.Ingest.groups (Option.get (ingest_entry srv).Service.Registry.ingest)
  in
  let extended = Obs.Metric.counter Obs.Metric.default "group.cache.extended" in
  let before = Obs.Metric.counter_value extended in
  (match
     Service.Server.handle_request srv
       (P.Append
          { table = "t"; csv = ingest_csv (List.init 10 (fun _ -> ingest_row rng)) })
   with
   | P.Ingested _ -> ()
   | _ -> Alcotest.fail "append failed");
  Alcotest.(check int) "one extension per cached grouping"
    (Dataframe.Group.Cache.length groups)
    (Obs.Metric.counter_value extended - before);
  Service.Server.shutdown srv

(* ------------------------------------------------------------------ *)
(* Append-then-synthesize differential: streaming a table in as
   appends must give the bit-identical program to a batch build, at
   every job count (incremental state must not leak into synthesis) *)

let test_append_synthesize_identical () =
  let spec = Datagen.Spec.by_id 6 in
  let _built, full = Datagen.Generate.dataset spec in
  let n = Frame.nrows full in
  let cut1 = n / 2 and cut2 = (3 * n) / 4 in
  let slice lo hi = Frame.take full (Array.init (hi - lo) (fun i -> lo + i)) in
  let streamed =
    Frame.extend (Frame.extend (slice 0 cut1) (slice cut1 cut2))
      (slice cut2 n)
  in
  Alcotest.(check int) "streamed rows" n (Frame.nrows streamed);
  Alcotest.(check int) "two appends, epoch 2" 2 (Frame.Snapshot.epoch streamed);
  let program frame jobs =
    let config = Guardrail.Config.make ~jobs () in
    let r = Guardrail.Synthesize.run ~config frame in
    (Guardrail.Pretty.prog_to_string r.Guardrail.Synthesize.program,
     r.Guardrail.Synthesize.coverage)
  in
  let batch_text, batch_cov = program full 1 in
  List.iter
    (fun jobs ->
      let text, cov = program streamed jobs in
      Alcotest.(check string)
        (Printf.sprintf "program identical to batch at jobs %d" jobs)
        batch_text text;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "coverage identical at jobs %d" jobs)
        batch_cov cov)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Drift precision: two independent constraints; corrupting one ON
   column flips exactly that statement stale *)

let drift_csv rows =
  "a,b,c,d\n"
  ^ String.concat ""
      (List.init rows (fun i ->
           if i mod 2 = 0 then "a0,b0,c0,d0\n" else "a1,b1,c1,d1\n"))

let drift_program =
  "GIVEN a ON b HAVING\n\
  \  IF a = \"a0\" THEN b <- \"b0\";\n\
  \  IF a = \"a1\" THEN b <- \"b1\";\n\
   GIVEN c ON d HAVING\n\
  \  IF c = \"c0\" THEN d <- \"d0\";\n\
  \  IF c = \"c1\" THEN d <- \"d1\";\n"

let test_drift_flags_only_affected () =
  let base = Csv.of_string (drift_csv 200) in
  let prog = Guardrail.Parse.prog (Frame.schema base) drift_program in
  let compiled = Guardrail.Validator.compile prog in
  let ingest = Service.Ingest.create compiled base in
  Alcotest.(check (list int)) "baseline is fresh" []
    (Service.Ingest.stale_stmts ingest);
  (* clean delta: rates hold, nothing flips *)
  let clean = Frame.extend base (Csv.of_string (drift_csv 40)) in
  let ingest = Service.Ingest.advance ingest compiled clean in
  Alcotest.(check (list int)) "clean appends stay fresh" []
    (Service.Ingest.stale_stmts ingest);
  (* corrupt ONLY d: every delta row pairs c0 with d1 and c1 with d0,
     violating statement 1; a->b stays perfect *)
  let corrupt_rows = 60 in
  let corrupt_csv =
    "a,b,c,d\n"
    ^ String.concat ""
        (List.init corrupt_rows (fun i ->
             if i mod 2 = 0 then "a0,b0,c0,d1\n" else "a1,b1,c1,d0\n"))
  in
  let dirty = Frame.extend clean (Csv.of_string corrupt_csv) in
  let ingest = Service.Ingest.advance ingest compiled dirty in
  Alcotest.(check (list int)) "only the corrupted GIVEN set flips" [ 1 ]
    (Service.Ingest.stale_stmts ingest);
  let keys = Service.Ingest.stale_keys ingest in
  Alcotest.(check bool) "stale keys name GIVEN c ON d" true
    (keys <> []
     && List.for_all
          (fun k ->
            let tail = "GIVEN c ON d" in
            let lt = String.length tail and lk = String.length k in
            lk >= lt && String.sub k (lk - lt) lt = tail)
          keys);
  Alcotest.(check bool) "violation rate of stmt 1 rose" true
    (Service.Ingest.violation_rate ingest 1 > 0.0);
  Alcotest.(check (float 1e-9)) "violation rate of stmt 0 still zero" 0.0
    (Service.Ingest.violation_rate ingest 0)

(* the registry REFRESH re-fills exactly the flagged statement and
   rebaselines the monitor *)
let test_refresh_refills_stale () =
  let base = Csv.of_string (drift_csv 200) in
  let reg = Service.Registry.create () in
  let (_ : Service.Registry.entry) =
    Service.Registry.load reg ~name:"t" ~program:drift_program base
  in
  (* no drift yet: refresh is a no-op *)
  let _entry, report = Service.Registry.refresh reg ~name:"t" in
  Alcotest.(check int) "nothing stale, nothing refreshed" 0
    report.Service.Registry.refreshed;
  Alcotest.(check int) "both statements checked" 2
    report.Service.Registry.checked;
  (* drive statement 1 stale through the ingest path *)
  let corrupt_csv =
    "a,b,c,d\n"
    ^ String.concat ""
        (List.init 60 (fun i ->
             if i mod 2 = 0 then "a0,b0,c0,d1\n" else "a1,b1,c1,d0\n"))
  in
  let (_ : Service.Registry.entry) =
    Service.Registry.append_rows reg ~name:"t" (Csv.of_string corrupt_csv)
  in
  let entry, report = Service.Registry.refresh reg ~name:"t" in
  Alcotest.(check bool) "stale keys reported" true
    (report.Service.Registry.stale <> []);
  Alcotest.(check int) "one statement re-filled or dropped" 1
    (report.Service.Registry.refreshed + report.Service.Registry.dropped);
  (* the monitor is rebaselined: an immediate second refresh is clean *)
  let _entry2, report2 = Service.Registry.refresh reg ~name:"t" in
  Alcotest.(check (list string)) "rebaselined" []
    report2.Service.Registry.stale;
  (* the entry still carries a compiled program over the grown frame *)
  (match entry.Service.Registry.program with
   | None -> Alcotest.fail "program dropped by refresh"
   | Some p ->
     Alcotest.(check bool) "program text regenerated" true
       (String.length p.Service.Registry.text > 0))

(* REFRESH refills with synthesis' support floor: a GIVEN value that
   only one row carries gets no branch of its own *)
let test_refresh_min_support () =
  let reg = Service.Registry.create () in
  let (_ : Service.Registry.entry) =
    Service.Registry.load reg ~name:"t" ~program:drift_program
      (Csv.of_string (drift_csv 200))
  in
  (* 8 violations in 209 rows push GIVEN c ON d past the drift
     threshold while its c0/c1 branches stay within epsilon *)
  let drifted =
    "a,b,c,d\n"
    ^ String.concat ""
        (List.init 8 (fun i ->
             if i mod 2 = 0 then "a0,b0,c0,d1\n" else "a1,b1,c1,d0\n"))
    ^ "a0,b0,c9,d0\n"
  in
  let (_ : Service.Registry.entry) =
    Service.Registry.append_rows reg ~name:"t" (Csv.of_string drifted)
  in
  let entry, report = Service.Registry.refresh reg ~name:"t" in
  Alcotest.(check int) "the drifted statement was refilled" 1
    report.Service.Registry.refreshed;
  let text = (Option.get entry.Service.Registry.program).Service.Registry.text in
  let mentions needle =
    let n = String.length needle and m = String.length text in
    let rec at i = i + n <= m && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "refill kept a supported branch" true
    (mentions "c = \"c0\"" || mentions "c = \"c1\"");
  Alcotest.(check bool) "no branch for the single-row value" false
    (mentions "c9")

let () =
  Alcotest.run "ingest"
    [
      ( "snapshot",
        [
          Alcotest.test_case "identity" `Quick test_snapshot_identity;
          Alcotest.test_case "extend delta" `Quick test_extend_delta;
          Alcotest.test_case "update rebuilds" `Quick
            test_update_cells_rebuilds;
          Alcotest.test_case "epoch window bounded" `Quick
            test_epoch_window_bounded;
          Alcotest.test_case "extend = batch" `Quick
            test_extend_bit_identical_to_batch;
        ] );
      ( "incremental",
        [
          QCheck_alcotest.to_alcotest qcheck_group_extend_agrees;
          QCheck_alcotest.to_alcotest qcheck_contingency_extend_agrees;
          Alcotest.test_case "group cache advance" `Quick
            test_group_cache_advance;
          QCheck_alcotest.to_alcotest qcheck_daemon_ingest_matches_fresh;
          Alcotest.test_case "append extends the one cache" `Quick
            test_append_extends_one_cache;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "appends = batch at jobs 1/2/4" `Slow
            test_append_synthesize_identical;
        ] );
      ( "drift",
        [
          Alcotest.test_case "flags only affected" `Quick
            test_drift_flags_only_affected;
          Alcotest.test_case "refresh re-fills stale" `Quick
            test_refresh_refills_stale;
          Alcotest.test_case "refresh keeps the support floor" `Quick
            test_refresh_min_support;
        ] );
    ]
