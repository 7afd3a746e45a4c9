(* Tests for the FD-discovery and synthesis baselines: partitions, TANE,
   CTANE, FDX and the OptSMT-style solver, plus differential checks of
   the FD and CTANE programs against the row-at-a-time references in
   [Oracle.Fd] and [Oracle.Ctane]. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Frame = Dataframe.Frame
module Dsl = Guardrail.Dsl
module Validator = Guardrail.Validator
module Fd = Baselines.Fd
module Partition = Baselines.Partition
module Tane = Baselines.Tane
module Ctane = Baselines.Ctane
module Fdx = Baselines.Fdx
module Optsmt = Baselines.Optsmt

let s v = Value.String v

(* zip -> city -> state, plus a free column *)
let fd_frame () =
  let schema =
    Schema.make
      [ Schema.categorical "zip"; Schema.categorical "city";
        Schema.categorical "state"; Schema.categorical "free" ]
  in
  let base =
    [
      [| s "94704"; s "Berkeley"; s "CA"; s "p" |];
      [| s "94612"; s "Oakland"; s "CA"; s "q" |];
      [| s "89501"; s "Reno"; s "NV"; s "p" |];
      [| s "69001"; s "Lyon"; s "ARA"; s "q" |];
      [| s "94704"; s "Berkeley"; s "CA"; s "q" |];
      [| s "89501"; s "Reno"; s "NV"; s "q" |];
    ]
  in
  (* vary "free" so it determines nothing *)
  let rng = Stat.Rng.create 10 in
  let rows =
    List.concat
      (List.init 30 (fun _ ->
           List.map
             (fun row ->
               let r = Array.copy row in
               r.(3) <- s (string_of_int (Stat.Rng.int rng 5));
               r)
             base))
  in
  Frame.of_rows schema rows

(* ------------------------------------------------------------------ *)
(* Fd *)

let test_fd_make_validation () =
  Alcotest.(check bool) "empty lhs" true
    (try ignore (Fd.make ~lhs:[] ~rhs:1); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "rhs in lhs" true
    (try ignore (Fd.make ~lhs:[ 1 ] ~rhs:1); false with Invalid_argument _ -> true)

let test_fd_violation_count () =
  let frame = fd_frame () in
  Alcotest.(check int) "zip -> city holds" 0
    (Fd.violation_count frame (Fd.make ~lhs:[ 0 ] ~rhs:1));
  Alcotest.(check bool) "free -> city violated" true
    (Fd.violation_count frame (Fd.make ~lhs:[ 3 ] ~rhs:1) > 0)

let flags prog frame = Validator.detect (Validator.compile prog) frame

let test_fd_detector () =
  let frame = fd_frame () in
  let prog = Fd.program frame [ Fd.make ~lhs:[ 0 ] ~rhs:1 ] in
  let corrupted = Frame.set frame 0 1 (s "gibbon") in
  let flags = flags prog corrupted in
  Alcotest.(check bool) "corruption flagged" true flags.(0);
  Alcotest.(check bool) "clean not flagged" false flags.(1)

let test_fd_detector_unseen_lhs () =
  let frame = fd_frame () in
  let prog = Fd.program frame [ Fd.make ~lhs:[ 0 ] ~rhs:1 ] in
  (* a row with an unseen zip is not flagged: no evidence *)
  let schema = Frame.schema frame in
  let test_frame =
    Frame.of_rows schema [ [| s "00000"; s "Nowhere"; s "XX"; s "p" |] ]
  in
  let flags = flags prog test_frame in
  Alcotest.(check bool) "unseen lhs not flagged" false flags.(0)

(* Binding a = x carries b = q and b = p twice each; q is met first, so
   it holds the lower dictionary code and wins the tie. *)
let tie_frame () =
  let schema = Schema.make [ Schema.categorical "a"; Schema.categorical "b" ] in
  Frame.of_rows schema
    [ [| s "x"; s "q" |]; [| s "x"; s "p" |]; [| s "x"; s "p" |];
      [| s "x"; s "q" |] ]

let assignment_of prog ~given ~on =
  match
    List.find_opt
      (fun (st : Dsl.stmt) -> st.Dsl.given = given && st.Dsl.on = on)
      prog.Dsl.stmts
  with
  | Some { Dsl.branches = [ { Dsl.assignment = Dsl.Eq v; _ } ]; _ } -> v
  | _ -> Alcotest.fail "expected one equality branch"

let test_fd_tie () =
  let frame = tie_frame () in
  let b = Frame.column frame 1 in
  Alcotest.(check bool) "q has the lower code" true
    (Dataframe.Column.code_of_value b (s "q")
     < Dataframe.Column.code_of_value b (s "p"));
  let prog = Fd.program frame [ Fd.make ~lhs:[ 0 ] ~rhs:1 ] in
  Alcotest.(check string) "FD tie to the lowest code" "q"
    (Value.to_string (assignment_of prog ~given:[ 0 ] ~on:1))

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_partition_basic () =
  let codes = [| 0; 0; 1; 1; 1; 2 |] in
  let p = Partition.of_codes 6 codes in
  (* class {5} is stripped *)
  Alcotest.(check int) "stripped classes" 2 (Partition.class_count p);
  Alcotest.(check int) "elements" 5 (Partition.element_count p)

let test_partition_product () =
  let a = Partition.of_codes 6 [| 0; 0; 0; 1; 1; 1 |] in
  let b = Partition.of_codes 6 [| 0; 0; 1; 1; 0; 0 |] in
  let p = Partition.product a b in
  (* combined classes: {0,1}, {4,5}; singletons {2}, {3} stripped *)
  Alcotest.(check int) "classes" 2 (Partition.class_count p);
  Alcotest.(check int) "elements" 4 (Partition.element_count p)

let test_partition_fd_error () =
  let frame = fd_frame () in
  let zip = Partition.of_column (Frame.column frame 0) in
  let city = Partition.of_column (Frame.column frame 1) in
  let zip_city = Partition.product zip city in
  Alcotest.(check int) "zip -> city error 0" 0 (Partition.fd_error zip zip_city);
  Alcotest.(check bool) "refines" true (Partition.refines zip zip_city);
  let free = Partition.of_column (Frame.column frame 3) in
  let free_city = Partition.product free city in
  Alcotest.(check bool) "free -> city error > 0" true
    (Partition.fd_error free free_city > 0)

(* The group-by-kernel-backed partitions match a direct Hashtbl
   reference (the pre-kernel implementation) on the datagen datasets:
   identical classes as row sets, singletons stripped. *)
let reference_partition n codes =
  let tbl : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  for i = n - 1 downto 0 do
    Hashtbl.replace tbl codes.(i)
      (i :: Option.value ~default:[] (Hashtbl.find_opt tbl codes.(i)))
  done;
  Hashtbl.fold
    (fun _ rows acc ->
      match rows with [] | [ _ ] -> acc | rows -> Array.of_list rows :: acc)
    tbl []

let test_partition_matches_reference_on_datagen () =
  List.iter
    (fun id ->
      let _, frame = Datagen.Generate.dataset (Datagen.Spec.by_id id) in
      let n = Frame.nrows frame in
      List.iter
        (fun j ->
          let codes = Dataframe.Column.codes (Frame.column frame j) in
          let p = Partition.of_codes n codes in
          let sort_classes cs =
            List.sort compare (List.map Array.to_list cs)
          in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "dataset %d column %d" id j)
            (sort_classes (reference_partition n codes))
            (sort_classes (Partition.classes p)))
        (Frame.categorical_indices frame))
    [ 3; 4; 6 ]

(* ------------------------------------------------------------------ *)
(* TANE *)

let test_tane_discovers_fds () =
  let frame = fd_frame () in
  let fds = Tane.discover frame in
  let has lhs rhs = List.exists (Fd.equal (Fd.make ~lhs ~rhs)) fds in
  Alcotest.(check bool) "zip -> city" true (has [ 0 ] 1);
  Alcotest.(check bool) "zip -> state" true (has [ 0 ] 2);
  Alcotest.(check bool) "city -> state" true (has [ 1 ] 2);
  Alcotest.(check bool) "free determines nothing" false
    (List.exists (fun (fd : Fd.t) -> fd.Fd.lhs = [ 3 ]) fds)

let test_tane_minimality () =
  let frame = fd_frame () in
  let fds = Tane.discover frame in
  (* since zip -> city holds, {zip, free} -> city must not be emitted *)
  Alcotest.(check bool) "no superset lhs" false
    (List.exists (fun (fd : Fd.t) -> fd.Fd.lhs = [ 0; 3 ] && fd.Fd.rhs = 1) fds)

let test_tane_budget () =
  (* 26 attributes of random data: the level-2 lattice exceeds a tiny
     budget *)
  let rng = Stat.Rng.create 77 in
  let schema =
    Schema.make (List.init 26 (fun i -> Schema.categorical (Printf.sprintf "a%d" i)))
  in
  let rows =
    List.init 50 (fun _ ->
        Array.init 26 (fun _ -> s (string_of_int (Stat.Rng.int rng 3))))
  in
  let frame = Frame.of_rows schema rows in
  Alcotest.(check bool) "budget exceeded" true
    (try
       ignore
         (Tane.discover
            ~config:{ Tane.default_config with Tane.max_candidates = 100 }
            frame);
       false
     with Tane.Out_of_budget _ -> true)

let test_tane_next_level () =
  let next = Tane.next_level [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  Alcotest.(check int) "singleton join" 3 (List.length next);
  let next2 = Tane.next_level [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ] in
  Alcotest.(check (list (list int))) "prefix join" [ [ 1; 2; 3 ] ] next2

(* ------------------------------------------------------------------ *)
(* CTANE *)

let test_ctane_discovers_rules () =
  let frame = fd_frame () in
  let prog = Ctane.discover frame in
  Alcotest.(check bool) "some rules found" true (Dsl.branch_count prog > 0);
  (* a constant CFD for zip=94704 -> city=Berkeley must exist *)
  let berkeley = Dsl.branch ~condition:[ Dsl.eq 0 (s "94704") ] ~assignment:(Dsl.Eq (s "Berkeley")) in
  Alcotest.(check bool) "berkeley rule" true
    (List.exists
       (fun (st : Dsl.stmt) ->
         st.Dsl.given = [ 0 ] && st.Dsl.on = 1
         && List.exists (Dsl.equal_branch berkeley) st.Dsl.branches)
       prog.Dsl.stmts)

let test_ctane_detect () =
  let frame = fd_frame () in
  let prog = Ctane.discover frame in
  let corrupted = Frame.set frame 0 1 (s "gibbon") in
  let flags = flags prog corrupted in
  Alcotest.(check bool) "corruption flagged" true flags.(0)

let test_ctane_tie () =
  (* error 2 of support 4: admitted at epsilon 0.5 *)
  let prog =
    Ctane.discover
      ~config:{ Ctane.default_config with Ctane.epsilon = 0.5 }
      (tie_frame ())
  in
  Alcotest.(check string) "CFD tie to the lowest code" "q"
    (Value.to_string (assignment_of prog ~given:[ 0 ] ~on:1))

let test_ctane_overfits_noise () =
  (* CTANE happily emits rules on independent data when support allows:
     the overfitting behaviour Table 3 punishes *)
  let rng = Stat.Rng.create 31 in
  let schema = Schema.make [ Schema.categorical "a"; Schema.categorical "b" ] in
  let rows =
    List.init 300 (fun _ ->
        [| s (string_of_int (Stat.Rng.int rng 2));
           s (string_of_int (Stat.Rng.int rng 2)) |])
  in
  let frame = Frame.of_rows schema rows in
  let prog =
    Ctane.discover
      ~config:{ Ctane.default_config with Ctane.epsilon = 0.6; min_support = 3 }
      frame
  in
  Alcotest.(check bool) "rules on noise at loose epsilon" true
    (Dsl.branch_count prog > 0)

let test_ctane_budget () =
  let frame = fd_frame () in
  Alcotest.(check bool) "rule budget" true
    (try
       ignore
         (Ctane.discover
            ~config:{ Ctane.default_config with Ctane.max_rules = 1 }
            frame);
       false
     with Ctane.Out_of_budget _ -> true)

(* ------------------------------------------------------------------ *)
(* FDX *)

let test_fdx_discovers_structure () =
  let frame = fd_frame () in
  let fds = Fdx.discover ~config:{ Fdx.default_config with Fdx.strict = false } frame in
  (* FDX should link zip/city/state; direction may vary, but the free
     column must stay unlinked *)
  Alcotest.(check bool) "found dependencies" true (fds <> []);
  Alcotest.(check bool) "free column unlinked" false
    (List.exists
       (fun (fd : Fd.t) -> fd.Fd.rhs = 3 || List.mem 3 fd.Fd.lhs)
       fds)

let test_fdx_singular_on_duplicates () =
  (* duplicated column makes the Gram matrix singular in strict mode *)
  let schema =
    Schema.make
      [ Schema.categorical "a"; Schema.categorical "a_copy"; Schema.categorical "b" ]
  in
  let rng = Stat.Rng.create 8 in
  let rows =
    List.init 400 (fun _ ->
        let a = string_of_int (Stat.Rng.int rng 4) in
        [| s a; s a; s (string_of_int (Stat.Rng.int rng 3)) |])
  in
  let frame = Frame.of_rows schema rows in
  Alcotest.(check bool) "strict mode raises" true
    (try
       ignore (Fdx.discover frame);
       false
     with Fdx.Ill_conditioned _ -> true);
  (* ridge mode survives *)
  let fds = Fdx.discover ~config:{ Fdx.default_config with Fdx.strict = false } frame in
  ignore fds

(* ------------------------------------------------------------------ *)
(* OptSMT *)

let test_optsmt_solves_tiny () =
  let frame = fd_frame () in
  match Optsmt.solve ~max_lhs:1 ~budget_s:30.0 frame with
  | Optsmt.Solved { program; explored; clauses } ->
    Alcotest.(check bool) "explored candidates" true (explored > 0);
    Alcotest.(check bool) "clause count positive" true (clauses > 0);
    (* the exact search finds the zip -> city statement *)
    Alcotest.(check bool) "finds zip -> city" true
      (List.exists
         (fun (st : Guardrail.Dsl.stmt) ->
           st.Guardrail.Dsl.given = [ 0 ] && st.Guardrail.Dsl.on = 1)
         program.Guardrail.Dsl.stmts)
  | Optsmt.Budget_exceeded _ -> Alcotest.fail "tiny instance should solve"

let test_optsmt_budget () =
  (* large dataset + tiny budget: must give up, like nuZ at 24h *)
  let spec = Datagen.Spec.by_id 8 in
  let _, frame = Datagen.Generate.dataset ~n_rows:20000 spec in
  match Optsmt.solve ~max_lhs:2 ~budget_s:0.05 frame with
  | Optsmt.Budget_exceeded { clauses; _ } ->
    Alcotest.(check bool) "clause blow-up" true (clauses > 100_000)
  | Optsmt.Solved _ -> Alcotest.fail "expected budget exhaustion"

let test_optsmt_clause_estimate_grows () =
  let small = fd_frame () in
  let spec = Datagen.Spec.by_id 1 in
  let _, big = Datagen.Generate.dataset ~n_rows:2000 spec in
  Alcotest.(check bool) "more data, more clauses" true
    (Optsmt.clause_estimate big > Optsmt.clause_estimate small)

(* ------------------------------------------------------------------ *)
(* Agreement between detectors on the shared example *)

let test_detectors_agree_on_planted_error () =
  let frame = fd_frame () in
  let corrupted = Frame.set frame 2 1 (s "zzz") in
  let tane_flags = flags (Fd.program frame (Tane.discover frame)) corrupted in
  let ctane_flags = flags (Ctane.discover frame) corrupted in
  Alcotest.(check bool) "TANE catches it" true tane_flags.(2);
  Alcotest.(check bool) "CTANE catches it" true ctane_flags.(2)

(* ------------------------------------------------------------------ *)
(* Differential: FD statements and CTANE programs checked by the
   Validator against the row-at-a-time references *)

(* A program's equality branches as sorted (lhs, pattern, rhs, value)
   rules, the shape of [Oracle.Ctane.rule]. *)
let rules_of (prog : Dsl.prog) =
  let value = function
    | Dsl.Eq v -> v
    | _ -> Alcotest.fail "non-equality test"
  in
  List.sort compare
    (List.concat_map
       (fun (st : Dsl.stmt) ->
         List.map
           (fun (b : Dsl.branch) ->
             ( st.Dsl.given,
               List.map (fun (a : Dsl.atom) -> value a.Dsl.test) b.Dsl.condition,
               st.Dsl.on,
               value b.Dsl.assignment ))
           st.Dsl.branches)
       prog.Dsl.stmts)

let reference_rules rules =
  List.sort compare
    (List.map
       (fun (r : Oracle.Ctane.rule) ->
         (r.Oracle.Ctane.lhs, r.pattern, r.rhs, r.value))
       rules)

(* Violation counts on both frames, and the flags on [test] of the FD
   program learned on [train], equal the reference's. *)
let fd_agrees train test fds =
  List.for_all
    (fun fd ->
      Fd.violation_count train fd = Oracle.Fd.violation_count train fd
      && Fd.violation_count test fd = Oracle.Fd.violation_count test fd)
    fds
  && flags (Fd.program train fds) test
     = Oracle.Fd.detect (List.map (Oracle.Fd.compile train) fds) test

(* The same budget failure, or the same rules as a set and the same
   flags on [test]. *)
let ctane_agrees ?config train test =
  let budgeted f = try Some (f ()) with Ctane.Out_of_budget _ -> None in
  match
    ( budgeted (fun () -> Ctane.discover ?config train),
      budgeted (fun () -> Oracle.Ctane.discover ?config train) )
  with
  | None, None -> true
  | Some prog, Some rules ->
    rules_of prog = reference_rules rules
    && flags prog test = Oracle.Ctane.detect rules test
  | _ -> false

(* Every FD with a one- or two-column lhs over the given columns. *)
let all_fds cols =
  let lhss =
    List.map (fun a -> [ a ]) cols
    @ List.concat_map
        (fun a -> List.filter_map (fun b -> if b > a then Some [ a; b ] else None) cols)
        cols
  in
  List.concat_map
    (fun lhs ->
      List.filter_map
        (fun rhs -> if List.mem rhs lhs then None else Some (Fd.make ~lhs ~rhs))
        cols)
    lhss

(* A dataset at no more than 2,000 rows, split in halves; the test half
   carries Table 3's injected errors. *)
let capped_split id =
  let spec = Datagen.Spec.by_id id in
  let built, frame =
    Datagen.Generate.dataset ~n_rows:(min 2000 spec.Datagen.Spec.n_rows) spec
  in
  let train, test =
    Dataframe.Split.train_test ~seed:id ~train_fraction:0.5 frame
  in
  (train, (Datagen.Corrupt.inject_any ~seed:id built test).Datagen.Corrupt.corrupted)

let test_fd_reference_on_datasets () =
  List.iter
    (fun (spec : Datagen.Spec.t) ->
      let id = spec.Datagen.Spec.id in
      let train, test = capped_split id in
      let first8 = List.filteri (fun i _ -> i < 8) (Frame.categorical_indices train) in
      Alcotest.(check bool) (Printf.sprintf "dataset %d" id) true
        (fd_agrees train test (all_fds first8)))
    Datagen.Spec.all

let test_ctane_reference_on_datasets () =
  List.iter
    (fun (spec : Datagen.Spec.t) ->
      let id = spec.Datagen.Spec.id in
      let train, test = capped_split id in
      Alcotest.(check bool) (Printf.sprintf "dataset %d" id) true
        (ctane_agrees train test))
    Datagen.Spec.all

(* A random train frame and a test frame over the same 2-4 categorical
   columns; cells may be null, and the test frame draws from one more
   value per column than training saw. *)
let random_frames seed =
  let rng = Stat.Rng.create seed in
  let ncols = 2 + Stat.Rng.int rng 3 in
  let schema =
    Schema.make
      (List.init ncols (fun j -> Schema.categorical (Printf.sprintf "c%d" j)))
  in
  let cards = Array.init ncols (fun _ -> 1 + Stat.Rng.int rng 3) in
  let frame extra =
    Frame.of_rows schema
      (List.init
         (1 + Stat.Rng.int rng 40)
         (fun _ ->
           Array.init ncols (fun j ->
               match Stat.Rng.int rng (cards.(j) + extra + 1) with
               | 0 -> Value.Null
               | k -> s (string_of_int k))))
  in
  let train = frame 0 in
  (train, frame 1, List.init ncols Fun.id, rng)

let qcheck_fd_matches_reference =
  QCheck.Test.make ~name:"fd program = row-at-a-time reference" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let train, test, cols, _ = random_frames seed in
      fd_agrees train test (all_fds cols) && fd_agrees train train (all_fds cols))

let qcheck_ctane_matches_reference =
  QCheck.Test.make ~name:"ctane program = row-at-a-time reference" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let train, test, _, rng = random_frames seed in
      let config =
        {
          Ctane.epsilon = [| 0.0; 0.2; 0.5 |].(Stat.Rng.int rng 3);
          max_lhs = 1 + Stat.Rng.int rng 2;
          min_support = 1 + Stat.Rng.int rng 3;
          max_rules = 1 + Stat.Rng.int rng 40;
        }
      in
      ctane_agrees ~config train test)

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_partition_product_commutes =
  QCheck.Test.make ~name:"partition product is commutative in error" ~count:60
    QCheck.(pair (list_of_size (Gen.return 30) (int_bound 3))
              (list_of_size (Gen.return 30) (int_bound 3)))
    (fun (xs, ys) ->
      let a = Partition.of_codes 30 (Array.of_list xs) in
      let b = Partition.of_codes 30 (Array.of_list ys) in
      let ab = Partition.product a b in
      let ba = Partition.product b a in
      Partition.class_count ab = Partition.class_count ba
      && Partition.element_count ab = Partition.element_count ba)

let qcheck_fd_error_zero_iff_refines =
  QCheck.Test.make ~name:"fd_error 0 iff product adds no splits" ~count:60
    QCheck.(list_of_size (Gen.return 24) (pair (int_bound 2) (int_bound 2)))
    (fun pairs ->
      let xs = Array.of_list (List.map fst pairs) in
      let ys = Array.of_list (List.map snd pairs) in
      let px = Partition.of_codes 24 xs in
      let pxy =
        Partition.product px (Partition.of_codes 24 ys)
      in
      let err = Partition.fd_error px pxy in
      (* recompute the reference error directly *)
      let tbl = Hashtbl.create 16 in
      Array.iteri
        (fun i x ->
          let k = x in
          let inner =
            match Hashtbl.find_opt tbl k with
            | Some t -> t
            | None ->
              let t = Hashtbl.create 4 in
              Hashtbl.add tbl k t;
              t
          in
          Hashtbl.replace inner ys.(i)
            (1 + Option.value ~default:0 (Hashtbl.find_opt inner ys.(i))))
        xs;
      let expected =
        Hashtbl.fold
          (fun _ inner acc ->
            let total = Hashtbl.fold (fun _ c a -> a + c) inner 0 in
            let best = Hashtbl.fold (fun _ c a -> max a c) inner 0 in
            if total >= 2 then acc + (total - best) else acc)
          tbl 0
      in
      err = expected)

(* ------------------------------------------------------------------ *)
(* Determinism: each discoverer, run on two separately built copies of
   the same frame, returns the same output in the same order. *)

let test_tane_deterministic () =
  let a = Tane.discover (fd_frame ()) and b = Tane.discover (fd_frame ()) in
  Alcotest.(check bool) "non-empty" true (a <> []);
  Alcotest.(check bool) "same FDs" true (List.equal Fd.equal a b)

let test_ctane_deterministic () =
  let a = Ctane.discover (fd_frame ()) and b = Ctane.discover (fd_frame ()) in
  Alcotest.(check bool) "non-empty" true (a.Dsl.stmts <> []);
  Alcotest.(check bool) "same rules" true (Dsl.equal_prog a b)

let test_fdx_deterministic () =
  let config = { Fdx.default_config with Fdx.strict = false } in
  let a = Fdx.discover ~config (fd_frame ())
  and b = Fdx.discover ~config (fd_frame ()) in
  Alcotest.(check bool) "same FDs" true (List.equal Fd.equal a b)

let () =
  Alcotest.run "baselines"
    [
      ( "fd",
        [
          Alcotest.test_case "validation" `Quick test_fd_make_validation;
          Alcotest.test_case "violation count" `Quick test_fd_violation_count;
          Alcotest.test_case "detector" `Quick test_fd_detector;
          Alcotest.test_case "unseen lhs" `Quick test_fd_detector_unseen_lhs;
          Alcotest.test_case "ties to lowest code" `Quick test_fd_tie;
        ] );
      ( "partition",
        [
          Alcotest.test_case "stripping" `Quick test_partition_basic;
          Alcotest.test_case "product" `Quick test_partition_product;
          Alcotest.test_case "fd error" `Quick test_partition_fd_error;
          Alcotest.test_case "matches reference on datagen" `Quick
            test_partition_matches_reference_on_datagen;
        ] );
      ( "tane",
        [
          Alcotest.test_case "discovers FDs" `Quick test_tane_discovers_fds;
          Alcotest.test_case "minimality" `Quick test_tane_minimality;
          Alcotest.test_case "budget" `Quick test_tane_budget;
          Alcotest.test_case "apriori join" `Quick test_tane_next_level;
        ] );
      ( "ctane",
        [
          Alcotest.test_case "discovers rules" `Quick test_ctane_discovers_rules;
          Alcotest.test_case "detects" `Quick test_ctane_detect;
          Alcotest.test_case "overfits noise" `Quick test_ctane_overfits_noise;
          Alcotest.test_case "budget" `Quick test_ctane_budget;
          Alcotest.test_case "ties to lowest code" `Quick test_ctane_tie;
        ] );
      ( "fdx",
        [
          Alcotest.test_case "discovers structure" `Quick test_fdx_discovers_structure;
          Alcotest.test_case "singular on duplicates" `Quick test_fdx_singular_on_duplicates;
        ] );
      ( "optsmt",
        [
          Alcotest.test_case "solves tiny" `Quick test_optsmt_solves_tiny;
          Alcotest.test_case "budget exceeded" `Quick test_optsmt_budget;
          Alcotest.test_case "clause growth" `Quick test_optsmt_clause_estimate_grows;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tane" `Quick test_tane_deterministic;
          Alcotest.test_case "ctane" `Quick test_ctane_deterministic;
          Alcotest.test_case "fdx" `Quick test_fdx_deterministic;
        ] );
      ( "cross",
        [ Alcotest.test_case "detectors agree" `Quick test_detectors_agree_on_planted_error ] );
      ( "reference",
        [
          Alcotest.test_case "fd on 12 datasets" `Quick
            test_fd_reference_on_datasets;
          Alcotest.test_case "ctane on 12 datasets" `Quick
            test_ctane_reference_on_datasets;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_partition_product_commutes; qcheck_fd_error_zero_iff_refines;
            qcheck_fd_matches_reference; qcheck_ctane_matches_reference ] );
    ]
