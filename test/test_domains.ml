(* Typed attribute domains end to end: binning properties (monotone ids,
   equi-depth balance), bin maintenance across APPEND (extend vs
   re-learn), the range-VM vs row-interpreter differential over binned
   frames, ISO-8601 round-trips, and the e2e check that synthesis over
   the mixed numeric dataset emits a BETWEEN covering a planted clean
   range — bit-identically at any worker count. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Domain = Dataframe.Domain
module Schema = Dataframe.Schema
module Dsl = Guardrail.Dsl
module Validator = Guardrail.Validator

(* ------------------------------------------------------------------ *)
(* Binning properties *)

(* floats off a lattice: dense enough for ties, finite by construction *)
let gen_values =
  QCheck.(list_of_size Gen.(2 -- 60)
            (map (fun i -> float_of_int i /. 7.0) (int_bound 10_000)))

let qcheck_assign_monotone =
  QCheck.Test.make ~name:"bin ids are monotone in the value" ~count:300
    QCheck.(pair bool gen_values)
    (fun (equi_width, values) ->
      let method_ = if equi_width then Domain.Equi_width else Domain.Equi_depth in
      match Domain.learn method_ ~bins:5 (Array.of_list values) with
      | None -> true
      | Some b ->
        let n = Domain.n_bins b in
        let sorted = List.sort_uniq Float.compare values in
        (* probes beyond both ends exercise the clipping arms *)
        let probes = ((-1e9) :: sorted) @ [ 1e9 ] in
        let ids = List.map (Domain.assign b) probes in
        List.for_all (fun i -> 0 <= i && i < n) ids
        && List.for_all2 ( <= ) ids
             (match ids with [] -> [] | _ :: tl -> tl @ [ n - 1 ]))

let qcheck_equi_depth_balance =
  QCheck.Test.make ~name:"equi-depth bins carry balanced mass (distinct values)"
    ~count:300 gen_values
    (fun values ->
      let bins = 4 in
      let distinct = List.sort_uniq Float.compare values in
      QCheck.assume (List.length distinct >= bins);
      let xs = Array.of_list distinct in
      match Domain.learn Domain.Equi_depth ~bins xs with
      | None -> true
      | Some b ->
        let counts = Array.make (Domain.n_bins b) 0 in
        Array.iter (fun x -> let i = Domain.assign b x in counts.(i) <- counts.(i) + 1) xs;
        let mx = Array.fold_left max counts.(0) counts in
        let mn = Array.fold_left min counts.(0) counts in
        mx - mn <= 1)

let qcheck_iso8601_roundtrip =
  QCheck.Test.make ~name:"of_raw (iso8601_of_epoch e) = Int e" ~count:500
    (* the renderer's 4-digit year range: 0000-01-01 .. 9999-12-31 *)
    QCheck.(int_range (-62_167_219_200) 253_402_300_799)
    (fun e ->
      Value.equal (Value.Int e) (Value.of_raw (Value.iso8601_of_epoch e)))

(* ------------------------------------------------------------------ *)
(* Frame-level bin maintenance on APPEND *)

let numeric_frame values =
  let schema = Schema.make [ Schema.categorical "g"; Schema.numeric "x" ] in
  Frame.of_rows schema
    (List.mapi
       (fun i x ->
         [| Value.String (Printf.sprintf "g%d" (i mod 3)); Value.Float x |])
       values)

let test_extend_below_drift () =
  let rng = Stat.Rng.create 17 in
  let base_vals = List.init 200 (fun _ -> 100.0 *. Stat.Rng.float rng) in
  let base = Frame.learn_domains ~bins:8 (numeric_frame base_vals) in
  let b = Option.get (Frame.binning base 1) in
  (* appended values stay inside the learned envelope: bins must extend
     in place, which is observationally a batch re-assign with the SAME
     binning — codes of the base rows stay a prefix *)
  let added = List.init 50 (fun _ -> 10.0 +. (80.0 *. Stat.Rng.float rng)) in
  let ext = Frame.extend base (numeric_frame added) in
  let b' = Option.get (Frame.binning ext 1) in
  Alcotest.(check bool) "binning unchanged" true (Domain.equal_binning b b');
  let codes = Frame.attr_codes base 1 and codes' = Frame.attr_codes ext 1 in
  Array.iteri
    (fun i c -> Alcotest.(check int) "base code prefix" c codes'.(i))
    codes;
  List.iteri
    (fun i x ->
      Alcotest.(check int)
        (Printf.sprintf "appended code %d" i)
        (Domain.assign b x)
        codes'.(200 + i))
    added;
  (match Frame.Delta.since ext ~epoch:(Frame.Snapshot.epoch base) with
   | Frame.Delta.Rows_appended { base_rows } ->
     Alcotest.(check int) "delta base" 200 base_rows
   | _ -> Alcotest.fail "expected Rows_appended below the drift threshold")

let test_extend_past_drift_relearns () =
  let rng = Stat.Rng.create 23 in
  let base_vals = List.init 200 (fun _ -> 100.0 *. Stat.Rng.float rng) in
  let base = Frame.learn_domains ~bins:8 (numeric_frame base_vals) in
  let b = Option.get (Frame.binning base 1) in
  (* every appended value lands far outside the envelope: past the 0.2
     drift threshold, bins re-learn and the delta log restarts *)
  let added = List.init 60 (fun i -> 1000.0 +. float_of_int i) in
  let ext = Frame.extend base (numeric_frame added) in
  let b' = Option.get (Frame.binning ext 1) in
  Alcotest.(check int) "version bumped" (b.Domain.version + 1) b'.Domain.version;
  (match Frame.Delta.since ext ~epoch:(Frame.Snapshot.epoch base) with
   | Frame.Delta.Rebuilt -> ()
   | _ -> Alcotest.fail "expected Rebuilt past the drift threshold");
  (* the re-learned edges are the ones a from-scratch learn over the
     union produces (relearn keeps the method and target bin count) *)
  let scratch =
    Option.get
      (Domain.learn b.Domain.method_ ~bins:b.Domain.target
         (Array.of_list (List.map snd
            (List.mapi (fun i x -> (i, x)) (base_vals @ added)))))
  in
  Alcotest.(check bool) "edges match scratch learn" true
    (b'.Domain.edges = scratch.Domain.edges)

(* ------------------------------------------------------------------ *)
(* Range-VM vs row-interpreter differential over binned frames *)

let test_range_vm_differential () =
  let rng = Stat.Rng.create 99 in
  for iter = 0 to 19 do
    let k = 3 + Stat.Rng.int rng 3 in
    let n = 200 + Stat.Rng.int rng 400 in
    let schema =
      Schema.make [ Schema.categorical "grp"; Schema.numeric "reading" ]
    in
    let rows =
      List.init n (fun _ ->
          let j = Stat.Rng.int rng k in
          let x = (10.0 *. float_of_int j) +. (20.0 *. Stat.Rng.float rng) in
          let cell =
            match Stat.Rng.int rng 20 with
            | 0 -> Value.Null
            | 1 -> Value.Int (int_of_float x)
            | _ -> Value.Float x
          in
          [| Value.String (Printf.sprintf "c%d" j); cell |])
    in
    let frame = Frame.learn_domains ~bins:6 (Frame.of_rows schema rows) in
    let b = Option.get (Frame.binning frame 1) in
    (* per-category range assignment: half bin-aligned windows (the fill's
       shape), half raw random bounds *)
    let branches =
      List.init k (fun j ->
          let assignment =
            if Stat.Rng.bool rng then begin
              let nb = Domain.n_bins b in
              let lo = Stat.Rng.int rng nb in
              let hi = min (nb - 1) (lo + Stat.Rng.int rng 3) in
              Domain.window_atom b ~lo ~hi
            end
            else begin
              let lo = 60.0 *. Stat.Rng.float rng in
              match Stat.Rng.int rng 3 with
              | 0 -> Dsl.Le lo
              | 1 -> Dsl.Ge lo
              | _ -> Dsl.Between { lo; hi = lo +. (30.0 *. Stat.Rng.float rng) }
            end
          in
          Dsl.branch
            ~condition:[ Dsl.eq 0 (Value.String (Printf.sprintf "c%d" j)) ]
            ~assignment)
    in
    let prog =
      Dsl.prog ~schema [ Dsl.stmt ~given:[ 0 ] ~on:1 ~branches ]
    in
    let compiled = Validator.compile prog in
    let rows_flags = Oracle.Validator.detect compiled frame in
    let vm_flags = Validator.detect compiled frame in
    if rows_flags <> vm_flags then
      Alcotest.fail
        (Printf.sprintf "VM/row divergence at iteration %d (n=%d)" iter n)
  done

(* ------------------------------------------------------------------ *)
(* End to end: synthesis over the mixed dataset emits a covering BETWEEN *)

let covering_between truth (prog : Dsl.prog) =
  (* a branch assignment on the reading column (index 1) whose interval
     contains some category's whole planted clean range *)
  List.exists
    (fun (s : Dsl.stmt) ->
      s.Dsl.on = 1
      && List.exists
           (fun (br : Dsl.branch) ->
             match br.Dsl.assignment with
             | Dsl.Between { lo; hi } ->
               Array.exists
                 (fun (rlo, rhi) -> lo <= rlo && rhi <= hi)
                 truth.Datagen.Numeric.ranges
             | Dsl.Eq _ | Dsl.Le _ | Dsl.Ge _ -> false)
           s.Dsl.branches)
    prog.Dsl.stmts

let test_synthesis_emits_between () =
  let frame, truth = Datagen.Numeric.mixed ~n_rows:1500 ~seed:3 () in
  let run jobs =
    Guardrail.Synthesize.run ~config:(Guardrail.Config.make ~jobs ()) frame
  in
  let r1 = run 1 in
  if not (covering_between truth r1.Guardrail.Synthesize.program) then
    Alcotest.fail
      (Printf.sprintf
         "no BETWEEN covering a planted clean range in:\n%s"
         (Guardrail.Pretty.prog_to_string r1.Guardrail.Synthesize.program));
  (* bit-identical programs and scores at any worker count *)
  List.iter
    (fun jobs ->
      let r = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "program identical at jobs=%d" jobs)
        true
        (r.Guardrail.Synthesize.program = r1.Guardrail.Synthesize.program);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "coverage identical at jobs=%d" jobs)
        r1.Guardrail.Synthesize.coverage r.Guardrail.Synthesize.coverage)
    [ 2; 4 ]

let test_mixed_ground_truth () =
  let frame, truth = Datagen.Numeric.mixed ~n_rows:2000 ~seed:7 () in
  Alcotest.(check int) "rows" 2000 (Frame.nrows frame);
  let planted = Datagen.Numeric.violation_count truth in
  Alcotest.(check bool) "some violations planted" true (planted > 0);
  (* every flagged row really is outside its category's clean range, and
     every clean row inside it *)
  let schema = Frame.schema frame in
  let grp = Schema.index schema "grp" and reading = Schema.index schema "reading" in
  for i = 0 to Frame.nrows frame - 1 do
    let row = Frame.row frame i in
    let j = Scanf.sscanf (Value.to_string row.(grp)) "c%d" (fun j -> j) in
    let lo, hi = truth.Datagen.Numeric.ranges.(j) in
    let x = Option.get (Value.to_float row.(reading)) in
    let outside = x < lo || x > hi in
    if outside <> truth.Datagen.Numeric.violations.(i) then
      Alcotest.fail (Printf.sprintf "ground-truth flag mismatch at row %d" i)
  done

let () =
  Alcotest.run "domains"
    [
      ( "binning",
        [
          Alcotest.test_case "extend below drift" `Quick test_extend_below_drift;
          Alcotest.test_case "extend past drift re-learns" `Quick
            test_extend_past_drift_relearns;
        ] );
      ( "vm",
        [
          Alcotest.test_case "range differential" `Quick
            test_range_vm_differential;
        ] );
      ( "datagen",
        [ Alcotest.test_case "mixed ground truth" `Quick test_mixed_ground_truth ] );
      ( "synthesis",
        [
          Alcotest.test_case "emits covering BETWEEN, jobs-stable" `Slow
            test_synthesis_emits_between;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_assign_monotone; qcheck_equi_depth_balance;
            qcheck_iso8601_roundtrip ] );
    ]
