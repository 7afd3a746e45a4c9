(* Differential tests for the predicate-bytecode VM: on random programs
   and random frames the batch (bitmap) validator must agree bit-for-bit
   with the row-at-a-time [Oracle.Validator], including the awkward
   corners — empty frames, all-violating rows, Int/Float dictionary aliasing,
   duplicate decision keys, and high-cardinality determinant spaces that
   push a decision table past the memo cap onto ad hoc grouping. Plus
   unit tests for the bitmap kernel, set_cells, the bytecode cache, the
   one-TABLE-per-statement lowering and the lock-free memo on a pool.
   Runs over a selection of rows (empty, one row, every row, sparse)
   must equal runs over the gathered frame, at caps that take both the
   memo and the grouped path. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Frame = Dataframe.Frame
module Rng = Stat.Rng
module Dsl = Guardrail.Dsl
module Validator = Guardrail.Validator

let s v = Value.String v

(* ---------------------------------------------------------------- *)
(* Random cases: a value pool rich in Int/Float aliases and values
   that never occur in any frame, so lowering hits resolvable and
   unresolvable keys, aliased expects and expect_none. *)

let pool =
  Value.
    [|
      Int 1; Float 1.0; Int 2; Float 2.0; Int 3; String "a"; String "b";
      String "c"; Bool true; Null; String "never-in-frame";
    |]

let rand_value rng = pool.(Rng.int rng (Array.length pool))

let rand_subset rng k avail =
  let arr = Array.of_list avail in
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  List.sort Int.compare (Array.to_list (Array.sub arr 0 k))

let rand_case seed =
  let rng = Rng.create seed in
  let ncols = 4 in
  let nrows = Rng.int rng 121 in
  let schema =
    Schema.make
      (List.init ncols (fun i -> Schema.categorical (Printf.sprintf "c%d" i)))
  in
  let rows =
    List.init nrows (fun _ ->
        Array.init ncols (fun _ ->
            (* frames never contain the "never-in-frame" sentinel *)
            let rec pick () =
              match rand_value rng with
              | Value.String "never-in-frame" -> pick ()
              | v -> v
            in
            pick ()))
  in
  let frame = Frame.of_rows schema rows in
  let n_stmts = 1 + Rng.int rng 3 in
  let stmts =
    List.init n_stmts (fun _ ->
        let on = Rng.int rng ncols in
        let avail = List.filter (fun c -> c <> on) (List.init ncols Fun.id) in
        let k = 1 + Rng.int rng 2 in
        let given = rand_subset rng k avail in
        let n_b = 1 + Rng.int rng 6 in
        let branches =
          List.init n_b (fun _ ->
              let condition =
                List.filter_map
                  (fun a ->
                    (* occasionally drop an equality: a partial condition
                       is unreachable and must stay unreachable *)
                    if List.length given > 1 && Rng.float rng < 0.15 then None
                    else Some (Dsl.eq a (rand_value rng)))
                  given
              in
              let condition =
                match condition with
                | [] -> [ Dsl.eq (List.hd given) (rand_value rng) ]
                | c -> c
              in
              Dsl.branch ~condition ~assignment:(Dsl.Eq (rand_value rng)))
        in
        Dsl.stmt ~given ~on ~branches)
  in
  (frame, Dsl.prog ~schema stmts)

(* ---------------------------------------------------------------- *)
(* Equality of the two paths' outputs *)

let violation_eq (a : Validator.violation) (b : Validator.violation) =
  a.Validator.row = b.Validator.row
  && Dsl.equal_stmt a.Validator.stmt b.Validator.stmt
  && Dsl.equal_branch a.Validator.branch b.Validator.branch
  && Value.equal a.Validator.actual b.Validator.actual
  && Value.equal a.Validator.expected b.Validator.expected

let violations_eq a b =
  List.length a = List.length b && List.for_all2 violation_eq a b

let frames_eq a b =
  Frame.nrows a = Frame.nrows b
  && Frame.ncols a = Frame.ncols b
  && (let ok = ref true in
      for i = 0 to Frame.nrows a - 1 do
        for j = 0 to Frame.ncols a - 1 do
          if not (Value.equal (Frame.get a i j) (Frame.get b i j)) then
            ok := false
        done
      done;
      !ok)

(* Per-statement bitmaps and matched rules of a fresh lowering at [cap]
   against the scalar probe the oracle is built on. A small cap sends
   wide GIVEN sets past the memo onto the grouped fallback. *)
let check_lowering ~cap frame rules =
  let p = Vm.Lower.lower ~cap frame rules in
  let v = Vm.Exec.run p frame in
  Array.iteri
    (fun stmt rs ->
      for i = 0 to Frame.nrows frame - 1 do
        let row = Frame.row frame i in
        let expected = Vm.Ruleset.check_row rs row in
        if Vm.Bitmap.get v.Vm.Exec.per_stmt.(stmt) i <> (expected <> None) then
          Alcotest.failf "cap %d: stmt %d row %d verdict diverges" cap stmt i;
        let key = Array.map (fun c -> row.(c)) (Vm.Ruleset.given rs) in
        if Vm.Exec.rule p ~stmt frame i <> Vm.Ruleset.find rs key then
          Alcotest.failf "cap %d: stmt %d row %d rule diverges" cap stmt i
      done)
    rules

(* A run at the selection [sel] equals a run on the gathered frame
   [Frame.take frame sel], each through a fresh lowering at [cap] (cold
   memos on both sides): the same per-statement bitmaps, and the same
   matched rule at every selected row. *)
let check_selection ~cap frame rules sel =
  let p = Vm.Lower.lower ~cap frame rules and q = Vm.Lower.lower ~cap frame rules in
  let sub = Frame.take frame sel in
  let v = Vm.Exec.run ~rows:sel p frame and w = Vm.Exec.run q sub in
  if v.Vm.Exec.n <> Array.length sel then
    Alcotest.failf "cap %d: run over %d rows reports %d" cap (Array.length sel) v.Vm.Exec.n;
  if not (Vm.Bitmap.equal v.Vm.Exec.any w.Vm.Exec.any) then
    Alcotest.failf "cap %d: selection of %d rows: any bitmap diverges" cap (Array.length sel);
  Array.iteri
    (fun stmt _ ->
      if not (Vm.Bitmap.equal v.Vm.Exec.per_stmt.(stmt) w.Vm.Exec.per_stmt.(stmt)) then
        Alcotest.failf "cap %d: selection of %d rows: stmt %d bitmap diverges" cap
          (Array.length sel) stmt;
      Array.iteri
        (fun k i ->
          if Vm.Exec.rule p ~stmt frame i <> Vm.Exec.rule q ~stmt sub k then
            Alcotest.failf "cap %d: stmt %d row %d (position %d): rule diverges" cap
              stmt i k)
        sel)
    rules

(* Empty, single-row, every-row and sparse selections of [frame]. *)
let selections rng frame =
  let n = Frame.nrows frame in
  [ [||]; Array.init n Fun.id;
    Array.of_list (List.filter (fun _ -> Rng.int rng 3 = 0) (List.init n Fun.id)) ]
  @ if n > 0 then [ [| Rng.int rng n |] ] else []

(* The validator over a selection equals the oracle over the gathered
   rows — violations numbered by position, repairs landing on the
   selected rows and nowhere else. *)
let check_validator_selection c frame sel =
  let sub = Frame.take frame sel in
  let vs = Validator.violations ~rows:sel c frame in
  if not (violations_eq vs (Oracle.Validator.violations c sub)) then
    Alcotest.failf "selection of %d rows: violations diverge" (Array.length sel);
  List.iter
    (fun strategy ->
      let repaired, _ = Validator.handle ~rows:sel ~strategy c frame in
      let expected, _ = Oracle.Validator.handle ~strategy c sub in
      if not (frames_eq (Frame.take repaired sel) expected) then
        Alcotest.failf "selection of %d rows: %s repairs diverge" (Array.length sel)
          (Validator.strategy_to_string strategy);
      let selected = Array.make (Frame.nrows frame) false in
      Array.iter (fun i -> selected.(i) <- true) sel;
      for i = 0 to Frame.nrows frame - 1 do
        if not selected.(i) then
          for j = 0 to Frame.ncols frame - 1 do
            if not (Value.equal (Frame.get repaired i j) (Frame.get frame i j)) then
              Alcotest.failf "row %d, outside the selection, was repaired" i
          done
      done)
    [ Validator.Rectify; Validator.Coerce ]

let check_differential ?(rng = Rng.create 0) frame prog =
  let c = Validator.compile prog in
  let rules = Vm.Program.source (Validator.bytecode c frame) in
  List.iter (fun cap -> check_lowering ~cap frame rules) [ 2; 6 ];
  List.iter
    (fun sel ->
      List.iter (fun cap -> check_selection ~cap frame rules sel) [ 2; 6 ];
      check_validator_selection c frame sel)
    (selections rng frame);
  let vm = Validator.violations c frame in
  let rows = Oracle.Validator.violations c frame in
  if not (violations_eq vm rows) then
    Alcotest.failf "violations diverge: vm=%d rows=%d" (List.length vm)
      (List.length rows);
  let d_vm = Validator.detect c frame in
  let d_rows = Oracle.Validator.detect c frame in
  Alcotest.(check (array bool)) "detect" d_rows d_vm;
  let bm = Validator.detect_bitmap c frame in
  Alcotest.(check int) "bitmap count"
    (Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 d_rows)
    (Vm.Bitmap.count bm);
  List.iter
    (fun strategy ->
      let f_vm, v_vm = Validator.handle ~strategy c frame in
      let f_rows, v_rows = Oracle.Validator.handle ~strategy c frame in
      if not (violations_eq v_vm v_rows) then
        Alcotest.fail "handle violations diverge";
      if not (frames_eq f_vm f_rows) then
        Alcotest.failf "repaired frames diverge (%s)"
          (Validator.strategy_to_string strategy))
    [ Validator.Rectify; Validator.Coerce ];
  (* scalar path: per-row check_values agrees with the batch rows *)
  for i = 0 to Frame.nrows frame - 1 do
    let scalar = Validator.check_values c (Frame.row frame i) in
    let batch =
      List.filter_map
        (fun v ->
          if v.Validator.row = i then Some { v with Validator.row = -1 }
          else None)
        rows
    in
    if not (violations_eq scalar batch) then
      Alcotest.failf "scalar/batch diverge at row %d" i
  done

let qcheck_differential =
  QCheck.Test.make ~name:"vm equals row interpreter on random cases"
    ~count:150 QCheck.(int_bound 100_000)
    (fun seed ->
      let frame, prog = rand_case seed in
      check_differential ~rng:(Rng.create (seed + 1)) frame prog;
      true)

(* ---------------------------------------------------------------- *)
(* Directed cases *)

let postal_schema () =
  Schema.make
    [ Schema.categorical "postal_code"; Schema.categorical "city" ]

let postal_prog schema =
  let branches =
    List.map
      (fun (z, c) ->
        Dsl.branch
          ~condition:[ Dsl.eq 0 (s z) ]
          ~assignment:(Dsl.Eq (s c)))
      [ ("94704", "Berkeley"); ("94612", "Oakland"); ("89501", "Reno") ]
  in
  Dsl.prog ~schema [ Dsl.stmt ~given:[ 0 ] ~on:1 ~branches ]

let test_empty_frame () =
  let schema = postal_schema () in
  let frame = Frame.of_rows schema [] in
  let c = Validator.compile (postal_prog schema) in
  Alcotest.(check int) "no violations" 0
    (List.length (Validator.violations c frame));
  Alcotest.(check int) "detect length" 0 (Array.length (Validator.detect c frame));
  Alcotest.(check int) "bitmap" 0 (Vm.Bitmap.count (Validator.detect_bitmap c frame))

let test_all_violating () =
  let schema = postal_schema () in
  let rows = List.init 77 (fun _ -> [| s "94704"; s "Oakland" |]) in
  let frame = Frame.of_rows schema rows in
  let c = Validator.compile (postal_prog schema) in
  check_differential frame (postal_prog schema);
  Alcotest.(check int) "all rows flagged" 77
    (Vm.Bitmap.count (Validator.detect_bitmap c frame));
  let repaired, vs = Validator.handle ~strategy:Validator.Rectify c frame in
  Alcotest.(check int) "all repaired" 77 (List.length vs);
  Alcotest.(check int) "fixpoint" 0
    (List.length (Validator.violations c repaired))

let test_high_cardinality_hashed () =
  (* two determinant columns whose cardinality product exceeds the memo
     cap: the statement's table must carry no memo and take the grouped
     fallback (hashed group keys, one value-level probe per group) *)
  let schema =
    Schema.make
      [ Schema.categorical "a"; Schema.categorical "b"; Schema.categorical "y" ]
  in
  let rng = Rng.create 7 in
  let rows =
    List.init 2000 (fun i ->
        let a = Printf.sprintf "a%d" (i mod 300) in
        let b = Printf.sprintf "b%d" (Rng.int rng 347) in
        [| s a; s b; s (if Rng.int rng 10 = 0 then "bad" else "ok") |])
  in
  let frame = Frame.of_rows schema rows in
  let branches =
    List.init 8 (fun j ->
        Dsl.branch
          ~condition:
            [ Dsl.eq 0 (s (Printf.sprintf "a%d" j));
              Dsl.eq 1 (s (Printf.sprintf "b%d" j)) ]
          ~assignment:(Dsl.Eq (s "ok")))
  in
  let single =
    Dsl.branch ~condition:[ Dsl.eq 0 (s "a1") ] ~assignment:(Dsl.Eq (s "ok"))
  in
  let prog =
    Dsl.prog ~schema
      [ Dsl.stmt ~given:[ 0; 1 ] ~on:2 ~branches;
        Dsl.stmt ~given:[ 0 ] ~on:2 ~branches:[ single ] ]
  in
  check_differential frame prog;
  let c = Validator.compile prog in
  let p = Validator.bytecode c frame in
  Alcotest.(check int) "one table per statement" 2 (Vm.Program.n_tables p);
  Alcotest.(check int) "past the cap: no memo" 0
    (Array.length p.Vm.Program.tables.(0).Vm.Program.memo);
  Alcotest.(check int) "under the cap: one slot per key" 300
    (Array.length p.Vm.Program.tables.(1).Vm.Program.memo)

let test_alias_expect () =
  (* Int 1 and Float 1.0 are distinct dictionary codes but equal under
     Value.equal: a rule assigning Int 1 must accept both codes *)
  let schema = Schema.make [ Schema.categorical "k"; Schema.numeric "v" ] in
  let frame =
    Frame.of_rows schema
      [
        [| s "x"; Value.Int 1 |];
        [| s "x"; Value.Float 1.0 |];
        [| s "x"; Value.Int 2 |];
      ]
  in
  let prog =
    Dsl.prog ~schema
      [
        Dsl.stmt ~given:[ 0 ] ~on:1
          ~branches:
            [
              Dsl.branch
                ~condition:[ Dsl.eq 0 (s "x") ]
                ~assignment:(Dsl.Eq (Value.Int 1));
            ];
      ]
  in
  check_differential frame prog;
  let c = Validator.compile prog in
  let flags = Validator.detect c frame in
  Alcotest.(check (array bool)) "only Int 2 violates"
    [| false; false; true |] flags

let test_duplicate_keys_last_wins () =
  let schema = postal_schema () in
  let frame = Frame.of_rows schema [ [| s "94704"; s "Berkeley" |] ] in
  let dup =
    Dsl.prog ~schema
      [
        Dsl.stmt ~given:[ 0 ] ~on:1
          ~branches:
            [
              Dsl.branch
                ~condition:[ Dsl.eq 0 (s "94704") ]
                ~assignment:(Dsl.Eq (s "Berkeley"));
              Dsl.branch
                ~condition:[ Dsl.eq 0 (s "94704") ]
                ~assignment:(Dsl.Eq (s "Oakland"));
            ];
      ]
  in
  check_differential frame dup;
  let c = Validator.compile dup in
  (* the later branch (Oakland) wins, so Berkeley is now the violation *)
  match Validator.violations c frame with
  | [ v ] ->
    Alcotest.(check bool) "expects Oakland" true
      (Value.equal v.Validator.expected (s "Oakland"))
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_absent_keys () =
  (* equality keys whose values are missing from the frame's
     dictionaries, in the first column, the second, or both: such rules
     can match no row, and the rules around them must lower as usual *)
  let schema =
    Schema.make
      [ Schema.categorical "a"; Schema.categorical "b"; Schema.categorical "c" ]
  in
  let frame =
    Frame.of_rows schema
      [
        [| s "x"; s "p"; s "ok" |];
        [| s "x"; s "p"; s "bad" |];
        [| s "y"; s "q"; s "ok" |];
        [| s "y"; s "q"; s "bad" |];
      ]
  in
  let rule a b c =
    Dsl.branch ~condition:[ Dsl.eq 0 (s a); Dsl.eq 1 (s b) ] ~assignment:(Dsl.Eq (s c))
  in
  let stmt branches = Dsl.stmt ~given:[ 0; 1 ] ~on:2 ~branches in
  let prog =
    Dsl.prog ~schema
      [
        stmt
          [ rule "absent" "p" "ok"; rule "x" "p" "ok"; rule "x" "absent" "bad";
            rule "absent" "absent" "bad"; rule "y" "q" "ok" ];
        (* no rule of this statement resolves *)
        stmt [ rule "absent" "p" "bad"; rule "x" "absent" "bad" ];
      ]
  in
  check_differential frame prog;
  Alcotest.(check (array bool)) "only the resolvable rules flag"
    [| false; true; false; true |]
    (Validator.detect (Validator.compile prog) frame)

let test_subset_reuses_lowering () =
  (* Frame.take shares dictionaries, so validating a row subset must
     work (and agree with the reference) without re-registering dicts *)
  let schema = postal_schema () in
  let rows =
    List.init 64 (fun i ->
        [| s (if i mod 2 = 0 then "94704" else "94612");
           s (if i mod 8 = 0 then "Reno" else "Berkeley") |])
  in
  let frame = Frame.of_rows schema rows in
  let prog = postal_prog schema in
  let c = Validator.compile prog in
  ignore (Validator.detect c frame);
  let sub = Frame.take frame (Array.init 10 (fun i -> i * 3)) in
  check_differential sub prog;
  Alcotest.(check (array bool)) "subset detect"
    (Oracle.Validator.detect c sub) (Validator.detect c sub)

(* ---------------------------------------------------------------- *)
(* Bytecode cache counters *)

let test_cache_counters () =
  let hits = Obs.Metric.counter Obs.Metric.default "vm.cache.hits" in
  let misses = Obs.Metric.counter Obs.Metric.default "vm.cache.misses" in
  let schema = postal_schema () in
  let frame =
    Frame.of_rows schema [ [| s "94704"; s "Berkeley" |]; [| s "94612"; s "Reno" |] ]
  in
  let c = Validator.compile (postal_prog schema) in
  let h0 = Obs.Metric.counter_value hits in
  let m0 = Obs.Metric.counter_value misses in
  ignore (Validator.detect c frame);
  ignore (Validator.detect c frame);
  ignore (Validator.violations c frame);
  Alcotest.(check int) "one miss"
    1 (Obs.Metric.counter_value misses - m0);
  Alcotest.(check int) "two hits"
    2 (Obs.Metric.counter_value hits - h0)

(* A program (and its memo) is only valid for the dictionaries it was
   lowered against: a frame whose dictionary gained a value must be
   refused rather than checked through stale key codes. *)
let test_stale_dictionaries () =
  let schema = postal_schema () in
  let frame =
    Frame.of_rows schema [ [| s "94704"; s "Berkeley" |]; [| s "94612"; s "Reno" |] ]
  in
  let p = Validator.bytecode (Validator.compile (postal_prog schema)) frame in
  Alcotest.(check int) "own frame runs" 2 (Vm.Exec.run p frame).Vm.Exec.n;
  let sub = Frame.take frame [| 1 |] in
  Alcotest.(check int) "row subset runs" 1 (Vm.Exec.run p sub).Vm.Exec.n;
  let grown = Frame.set frame 0 0 (s "10001") in
  Alcotest.check_raises "new dictionary"
    (Invalid_argument
       "Vm.Exec.run: frame incompatible with program (stale dictionaries)")
    (fun () -> ignore (Vm.Exec.run p grown))

(* Lowering emits one TABLE per statement and never reads a rule: a
   200,000-rule statement allocates what a 1-rule one does. *)
let test_one_table_per_statement () =
  let schema =
    Schema.make
      [ Schema.categorical "a"; Schema.categorical "b"; Schema.categorical "y" ]
  in
  let frame =
    Frame.of_rows schema
      (List.init 50 (fun i ->
           [| s (Printf.sprintf "a%d" (i mod 7)); s (Printf.sprintf "b%d" (i mod 5));
              s "ok" |]))
  in
  let ruleset n =
    Vm.Ruleset.make ~given:[| 0; 1 |] ~on:2
      (Array.init n (fun i ->
           ( [| Dataframe.Domain.Eq (s (Printf.sprintf "a%d" i));
                Dataframe.Domain.Eq (s (Printf.sprintf "b%d" i)) |],
             Dataframe.Domain.Eq (s "ok") )))
  in
  let rules = Array.init 5 (fun i -> ruleset (i + 1)) in
  let p = Vm.Lower.lower frame rules in
  Alcotest.(check int) "n ops" 5 (Vm.Program.n_ops p);
  Array.iteri
    (fun i op ->
      match op with
      | Vm.Op.Table { table; dst } when table = i && dst = i -> ()
      | op -> Alcotest.failf "op %d is %a" i Vm.Op.pp op)
    p.Vm.Program.ops;
  let allocated rs =
    let one = [| rs |] in
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Vm.Lower.lower frame one));
    Gc.allocated_bytes () -. before
  in
  let small = ruleset 1 and large = ruleset 200_000 in
  ignore (allocated small);
  let a_small = allocated small and a_large = allocated large in
  if a_large > a_small +. 1024.0 then
    Alcotest.failf "lowering 200k rules allocated %.0f bytes, 1 rule %.0f"
      a_large a_small

(* One fresh lowering, cold memos, run from 4 pool workers at once over
   overlapping row subsets, each both gathered and as a selection of
   the frame: every bitmap must equal the oracle's, and a second, warm
   pass must reproduce the first. *)
let test_cold_memo_on_domains () =
  let frame, prog =
    let rng = Rng.create 3 in
    let schema =
      Schema.make
        [ Schema.categorical "a"; Schema.categorical "b";
          Schema.categorical "y"; Schema.numeric "x" ]
    in
    let rows =
      List.init 3000 (fun _ ->
          let a = Rng.int rng 40 and b = Rng.int rng 30 in
          [| s (Printf.sprintf "a%d" a); s (Printf.sprintf "b%d" b);
             s (if Rng.int rng 8 = 0 then "bad" else Printf.sprintf "y%d" (a mod 5));
             Value.Float (float_of_int (Rng.int rng 100)) |])
    in
    let eq a v = Dsl.eq a (s v) in
    let by_a =
      List.init 40 (fun a ->
          Dsl.branch ~condition:[ eq 0 (Printf.sprintf "a%d" a) ]
            ~assignment:(Dsl.Eq (s (Printf.sprintf "y%d" (a mod 5)))))
    in
    let by_ab =
      List.init 600 (fun i ->
          let a = i mod 40 and b = i mod 30 in
          Dsl.branch
            ~condition:[ eq 0 (Printf.sprintf "a%d" a); eq 1 (Printf.sprintf "b%d" b) ]
            ~assignment:(Dsl.Between { lo = 0.0; hi = float_of_int (50 + a) }))
    in
    ( Frame.of_rows schema rows,
      Dsl.prog ~schema
        [ Dsl.stmt ~given:[ 0 ] ~on:2 ~branches:by_a;
          Dsl.stmt ~given:[ 0; 1 ] ~on:3 ~branches:by_ab ] )
  in
  let c = Validator.compile prog in
  let rules = Vm.Program.source (Validator.bytecode c frame) in
  let p = Vm.Lower.lower frame rules in
  let n = Frame.nrows frame in
  let selections =
    List.init 8 (fun j ->
        Array.of_list (List.filter (fun i -> (i + j) mod 3 <> 0) (List.init n Fun.id)))
  in
  let bitmaps v =
    (Vm.Bitmap.to_bool_array v.Vm.Exec.any,
     Array.map Vm.Bitmap.to_bool_array v.Vm.Exec.per_stmt)
  in
  (* each task runs the gathered subset and the same rows as a
     selection of the frame *)
  let pool = Runtime.Pool.create ~size:4 () in
  let pass () =
    Runtime.Pool.map_list pool
      (fun sel ->
        (bitmaps (Vm.Exec.run p (Frame.take frame sel)),
         bitmaps (Vm.Exec.run ~rows:sel p frame)))
      selections
  in
  let cold = pass () in
  let warm = pass () in
  Runtime.Pool.shutdown pool;
  List.iter2
    (fun sel ((any, _), ((sel_any, _) as at_sel)) ->
      let expected = Oracle.Validator.detect c (Frame.take frame sel) in
      Alcotest.(check (array bool)) "cold pass equals oracle" expected any;
      Alcotest.(check (array bool)) "cold selection equals oracle" expected sel_any;
      Alcotest.(check bool) "selection equals gathered subset" true
        (at_sel = bitmaps (Vm.Exec.run p (Frame.take frame sel))))
    selections cold;
  Alcotest.(check bool) "warm pass equals cold pass" true (warm = cold)

(* ---------------------------------------------------------------- *)
(* Bitmap kernel *)

let test_bitmap_tail () =
  let b = Vm.Bitmap.create 13 in
  Alcotest.(check int) "empty" 0 (Vm.Bitmap.count b);
  Vm.Bitmap.not_in b;
  Alcotest.(check int) "all after not" 13 (Vm.Bitmap.count b);
  Vm.Bitmap.fill_all b;
  Alcotest.(check int) "all after fill" 13 (Vm.Bitmap.count b);
  Vm.Bitmap.clear_all b;
  Vm.Bitmap.set b 12;
  Alcotest.(check bool) "bit 12" true (Vm.Bitmap.get b 12);
  Alcotest.(check int) "one" 1 (Vm.Bitmap.count b)

let qcheck_bitmap_ops =
  QCheck.Test.make ~name:"bitmap connectives match bool arrays" ~count:200
    QCheck.(pair (list_of_size Gen.(int_bound 100) bool)
              (list_of_size Gen.(int_bound 100) bool))
    (fun (xs, ys) ->
      let n = min (List.length xs) (List.length ys) in
      let a = Array.of_list xs and b = Array.of_list ys in
      let a = Array.sub a 0 n and b = Array.sub b 0 n in
      let check op_name op expect =
        let x = Vm.Bitmap.of_bool_array a in
        let y = Vm.Bitmap.of_bool_array b in
        op x y;
        let got = Vm.Bitmap.to_bool_array x in
        let want = Array.init n (fun i -> expect a.(i) b.(i)) in
        if got <> want then
          QCheck.Test.fail_reportf "%s diverges at n=%d" op_name n
      in
      check "and" Vm.Bitmap.and_in (fun x y -> x && y);
      check "or" Vm.Bitmap.or_in (fun x y -> x || y);
      check "andnot" Vm.Bitmap.andnot_in (fun x y -> x && not y);
      check "not" (fun x _ -> Vm.Bitmap.not_in x) (fun x _ -> not x);
      (* iteri_set ascending *)
      let x = Vm.Bitmap.of_bool_array a in
      let seen = ref [] in
      Vm.Bitmap.iteri_set x (fun i -> seen := i :: !seen);
      let asc = List.rev !seen in
      asc = List.sort Int.compare asc
      && List.length asc = Vm.Bitmap.count x)

(* ---------------------------------------------------------------- *)
(* Frame.set_cells *)

let qcheck_set_cells =
  QCheck.Test.make ~name:"set_cells equals folded set" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let frame, _ = rand_case seed in
      QCheck.assume (Frame.nrows frame > 0);
      let n_updates = Rng.int rng 20 in
      let cells =
        List.init n_updates (fun _ ->
            ( Rng.int rng (Frame.nrows frame),
              Rng.int rng (Frame.ncols frame),
              pool.(Rng.int rng (Array.length pool)) ))
      in
      let batch = Frame.set_cells frame cells in
      let folded =
        List.fold_left (fun f (r, c, v) -> Frame.set f r c v) frame cells
      in
      frames_eq batch folded)

let () =
  Alcotest.run "vm"
    [
      ( "bitmap",
        [
          Alcotest.test_case "tail invariant" `Quick test_bitmap_tail;
          QCheck_alcotest.to_alcotest qcheck_bitmap_ops;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest qcheck_differential;
          Alcotest.test_case "empty frame" `Quick test_empty_frame;
          Alcotest.test_case "all violating" `Quick test_all_violating;
          Alcotest.test_case "hashed high cardinality" `Quick
            test_high_cardinality_hashed;
          Alcotest.test_case "Int/Float alias expect" `Quick test_alias_expect;
          Alcotest.test_case "duplicate keys last wins" `Quick
            test_duplicate_keys_last_wins;
          Alcotest.test_case "absent equality keys" `Quick test_absent_keys;
          Alcotest.test_case "row subsets" `Quick test_subset_reuses_lowering;
        ] );
      ( "vm",
        [
          Alcotest.test_case "cache counters" `Quick test_cache_counters;
          Alcotest.test_case "stale dictionaries" `Quick
            test_stale_dictionaries;
          Alcotest.test_case "one TABLE per statement" `Quick
            test_one_table_per_statement;
          Alcotest.test_case "cold memo on 4 domains" `Quick
            test_cold_memo_on_domains;
        ] );
      ( "dataframe",
        [ QCheck_alcotest.to_alcotest qcheck_set_cells ] );
    ]
