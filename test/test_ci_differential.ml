(* Differential suite for the bit-packed CI path.

   - Kernel: [Stat.Bits.conditional] on packed 0/1 columns must count
     exactly the tables [Stat.Contingency.conditional] counts on the
     unpacked columns (same strata, same order, [None] in the same
     cases), and [Stat.Ci.evaluate] of them must equal [Stat.Ci.test]:
     the whole result, floats compared by bits, and the same
     [ci.tests] / [ci.conservative] deltas.
   - Sampler: [Guardrail.Auxdist.circular_shift] must unpack to the
     int-per-sample [Oracle.Auxdist] sampler, with the same words at
     pool sizes 0, 2 and 4, and [Auxdist.ci_oracle] must answer as
     [Stat.Ci.test] on the unpacked columns.

   Generated cases hold n on and around word edges (1, 61, 62, 63,
   124, 125) or random up to 2,000; 2-6 columns, some constant, some
   duplicating or noisily copying an earlier one; conditioning sets of
   0-3 columns in any order (repeats allowed); max_strata 1-8; both
   statistics; random alpha and effect floors. The 12 benchmark
   datasets are pinned at 300 rows and checked at synthesis' own
   sampler and CI settings ([Guardrail.Config]); the sampler's edges
   (n = 2, n below a word, runs cut mid-shift and mid-word, shifts past
   n - 1) on small frames. *)

module Frame = Dataframe.Frame
module Bits = Stat.Bits
module Ci = Stat.Ci
module Contingency = Stat.Contingency
module Rng = Stat.Rng
module Auxdist = Guardrail.Auxdist
module Config = Guardrail.Config

let failf fmt = Printf.ksprintf failwith fmt

let counter name =
  Obs.Metric.counter_value (Obs.Metric.counter Obs.Metric.default name)

(* [f ()] and its ([ci.tests], [ci.conservative]) deltas *)
let counted f =
  let t0 = counter "ci.tests" and c0 = counter "ci.conservative" in
  let r = f () in
  (r, (counter "ci.tests" - t0, counter "ci.conservative" - c0))

(* 0/1 samples packed 62 to a word, bit [i mod 62] of word [i / 62] *)
let pack col =
  let ws = Array.make (Bits.words (Array.length col)) 0 in
  Array.iteri
    (fun i b ->
      let w = i / Bits.width in
      ws.(w) <- ws.(w) lor (b lsl (i mod Bits.width)))
    col;
  ws

let same_result (a : Ci.result) (b : Ci.result) =
  Int64.bits_of_float a.stat = Int64.bits_of_float b.stat
  && a.df = b.df
  && Int64.bits_of_float a.p_value = Int64.bits_of_float b.p_value
  && a.independent = b.independent

let pp_result (r : Ci.result) =
  Printf.sprintf "{stat %h; df %d; p %h; independent %b}" r.stat r.df r.p_value
    r.independent

(* Verdicts the generator reached: the stratum cap, no usable signal,
   dependent, independent with signal. *)
let reached = Array.make 4 0

(* ---------------------------------------------------------------- *)
(* Kernel *)

let check_test spec ~n cols i j cond =
  let xs = cols.(i) and ys = cols.(j) in
  let zs = List.map (fun k -> cols.(k)) cond in
  let packed = Array.map (fun c -> Bits.column (pack c)) cols in
  let pzs = List.map (fun k -> packed.(k)) cond in
  let max_strata = spec.Ci.max_strata in
  let tables =
    Contingency.conditional ~kx:2 ~ky:2 ~max_strata xs ys zs
      (List.map (fun _ -> 2) zs)
  in
  let ptables = Bits.conditional ~max_strata ~n packed.(i) packed.(j) pzs in
  if ptables <> tables then failf "tables differ";
  let expected, expected_counts =
    counted (fun () -> Ci.test spec xs ys zs (List.map (fun _ -> 2) zs))
  in
  let r, r_counts = counted (fun () -> Ci.evaluate spec ptables) in
  if not (same_result r expected) then
    failf "result %s, Ci.test %s" (pp_result r) (pp_result expected);
  if r_counts <> expected_counts then
    failf "ci.tests / ci.conservative deltas differ";
  let verdict =
    match tables with
    | None -> 0
    | Some _ when r.df = 0 -> 1
    | Some _ -> if r.independent then 3 else 2
  in
  reached.(verdict) <- reached.(verdict) + 1

let edge_sizes = [| 1; 61; 62; 63; 124; 125 |]

let random_columns rng =
  let n =
    if Rng.bool rng then edge_sizes.(Rng.int rng (Array.length edge_sizes))
    else 1 + Rng.int rng 2000
  in
  let m = 2 + Rng.int rng 5 in
  let cols = Array.make m [||] in
  for k = 0 to m - 1 do
    cols.(k) <-
      (match Rng.int rng 5 with
      | 0 -> Array.make n (Rng.int rng 2)
      | 1 when k > 0 -> Array.copy cols.(Rng.int rng k)
      | 2 when k > 0 ->
        let src = cols.(Rng.int rng k) and flip = Rng.float rng *. 0.3 in
        Array.map (fun v -> if Rng.float rng < flip then 1 - v else v) src
      | _ ->
        let p = Rng.float rng in
        Array.init n (fun _ -> if Rng.float rng < p then 1 else 0))
  done;
  (n, cols)

let qcheck_kernel =
  QCheck.Test.make ~name:"packed kernel = Ci.test" ~count:1000 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let n, cols = random_columns rng in
      let m = Array.length cols in
      let kind = if Rng.bool rng then Ci.Chi_square else Ci.G_test in
      let spec =
        Ci.make ~kind
          ~max_strata:(1 + Rng.int rng 8)
          ~min_effect:(if Rng.bool rng then 0.0 else Rng.float rng *. 0.3)
          ~alpha:(0.001 +. (Rng.float rng *. 0.998))
          ~kx:2 ~ky:2 ()
      in
      for _ = 1 to 4 do
        let i = Rng.int rng m and j = Rng.int rng m in
        let cond = List.init (Rng.int rng 4) (fun _ -> Rng.int rng m) in
        check_test spec ~n cols i j cond
      done;
      true)

(* Hand-built columns at the kernel's edges, each checked like a
   generated case. *)
let test_kernel_edges () =
  let spec max_strata =
    Ci.make ~max_strata ~min_effect:0.0 ~alpha:0.05 ~kx:2 ~ky:2 ()
  in
  let rng = Rng.create 29 in
  let coin n = Array.init n (fun _ -> Rng.int rng 2) in
  (* strata missing from word 0: z is 1 on sample 0 only, then 1 again
     from sample 130 (word 2), so the z = 0 stratum comes second; w is 0
     through word 1, so with k = 2 strata first appear in words 0 and 2,
     and with [w; z] the stratum order differs from the id order *)
  let n = 200 in
  let z = Array.init n (fun i -> if i = 0 || i >= 130 then 1 else 0) in
  let w = Array.init n (fun i -> if i >= 124 then i land 1 else 0) in
  let cols = [| coin n; coin n; z; w |] in
  List.iter
    (fun cond -> check_test (spec 8) ~n cols 0 1 cond)
    [ []; [ 2 ]; [ 3 ]; [ 2; 3 ]; [ 3; 2 ] ];
  (* n a multiple of 62: the last word is full *)
  List.iter
    (fun n ->
      let cols = Array.init 4 (fun _ -> coin n) in
      List.iter
        (fun cond -> check_test (spec 8) ~n cols 0 1 cond)
        [ []; [ 2 ]; [ 2; 3 ]; [ 3; 2; 0 ] ])
    [ 62; 124; 186; 620 ];
  (* a repeated conditioning column: two of its four strata are empty *)
  let n = 300 in
  let cols = Array.init 3 (fun _ -> coin n) in
  check_test (spec 8) ~n cols 0 1 [ 2; 2 ];
  check_test (spec 8) ~n cols 0 1 [ 2; 2; 2 ];
  (* k = 1 over a one-stratum cap: no tables *)
  let packed = Array.map (fun c -> Bits.column (pack c)) cols in
  Alcotest.(check bool) "k = 1 at max_strata 1 is None" true
    (Bits.conditional ~max_strata:1 ~n packed.(0) packed.(1) [ packed.(2) ] = None);
  check_test (spec 1) ~n cols 0 1 [ 2 ];
  check_test (spec 1) ~n cols 0 1 []

let test_generator_reaches_verdicts () =
  Array.iteri
    (fun v c ->
      Alcotest.(check bool)
        (Printf.sprintf "verdict %d reached" v) true (c > 0))
    reached

let test_bits_layout () =
  List.iter
    (fun n ->
      let rng = Rng.create n in
      let col = Array.init n (fun _ -> Rng.int rng 2) in
      let ws = pack col in
      Alcotest.(check int) "words" ((n + 61) / 62) (Array.length ws);
      Alcotest.(check (array int)) "unpack . pack" col (Bits.unpack n ws);
      Array.iteri
        (fun w word ->
          let bits = List.init (min 62 (n - (w * 62))) (fun b -> col.((w * 62) + b)) in
          Alcotest.(check int) "word = samples, low bit first"
            (List.fold_right (fun b acc -> (2 * acc) + b) bits 0) word;
          Alcotest.(check int) "popcount" (List.fold_left ( + ) 0 bits) (Bits.popcount word))
        ws)
    [ 0; 1; 61; 62; 63; 124; 125; 1000 ];
  Alcotest.(check int) "full word" max_int (pack (Array.make 62 1)).(0);
  Alcotest.(check int) "popcount full" 62 (Bits.popcount max_int)

(* ---------------------------------------------------------------- *)
(* Sampler and oracle on the benchmark datasets *)

let dataset spec =
  let _, frame = Datagen.Generate.dataset ~n_rows:300 spec in
  let frame = Frame.ensure_domains ~bins:Config.bins frame in
  (frame, Guardrail.Synthesize.eligible_columns frame)

let check_sampler ~max_shifts ~max_samples frame cols =
  let samples = Auxdist.circular_shift ~max_shifts ~max_samples frame cols in
  let expected = Oracle.Auxdist.circular_shift ~max_shifts ~max_samples frame cols in
  Alcotest.(check int) "n_samples" (Array.length expected.(0)) samples.Auxdist.n_samples;
  Alcotest.(check (list int)) "cards" (List.map (fun _ -> 2) cols) samples.Auxdist.cards;
  Alcotest.(check (array (array int))) "indicators" expected (Auxdist.columns samples)

let test_sampler_datasets () =
  List.iter
    (fun (spec : Datagen.Spec.t) ->
      let frame, cols = dataset spec in
      if cols = [] then Alcotest.failf "%s: no eligible columns" spec.Datagen.Spec.name;
      check_sampler ~max_shifts:Config.max_shifts ~max_samples:Config.max_samples
        frame cols;
      (* stop two shifts and 137 samples in: mid-shift and mid-word *)
      let n = Frame.nrows frame in
      check_sampler ~max_shifts:7 ~max_samples:((2 * n) + 137) frame cols)
    Datagen.Spec.all

(* Frames of [n] rows whose columns agree across a shift at rates from
   never to always: a constant, a 2-code, a 3-code and an all-distinct
   column. *)
let edge_frame rng n =
  let column k =
    let card = [| 1; 2; 3; n |].(k) in
    Dataframe.Column.of_values
      (Array.init n (fun i ->
           Dataframe.Value.Int (if card = n then i else Rng.int rng card)))
  in
  Frame.of_columns
    (Dataframe.Schema.make
       (List.init 4 (fun k -> Dataframe.Schema.categorical (Printf.sprintf "c%d" k))))
    (List.init 4 column)

(* The packed words, byte for byte, and the unpacked oracle, at every
   pool size: no pool, 2 and 4 workers. The cases hold n = 2; n below
   one word; shifts * n off a word edge; [max_samples] stopping mid-shift
   and mid-word; and [max_shifts] past n - 1, which caps at n - 1. *)
let test_sampler_edges () =
  let pools = [ Runtime.Pool.create ~size:2 (); Runtime.Pool.create ~size:4 () ] in
  Fun.protect ~finally:(fun () -> List.iter Runtime.Pool.shutdown pools) @@ fun () ->
  let rng = Rng.create 26 in
  List.iter
    (fun (n, max_shifts, max_samples) ->
      let frame = edge_frame rng n and cols = [ 0; 1; 2; 3 ] in
      let name = Printf.sprintf "n %d, shifts %d, samples %d" n max_shifts max_samples in
      let sample pool = Auxdist.circular_shift ?pool ~max_shifts ~max_samples frame cols in
      let serial = sample None in
      let expected = Oracle.Auxdist.circular_shift ~max_shifts ~max_samples frame cols in
      Alcotest.(check int) (name ^ ": n_samples") (Array.length expected.(0))
        serial.Auxdist.n_samples;
      Alcotest.(check (array (array int))) (name ^ ": = oracle") expected
        (Auxdist.columns serial);
      List.iter
        (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "%s: words at pool size %d" name (Runtime.Pool.size pool))
            (Marshal.to_string serial.Auxdist.data [])
            (Marshal.to_string (sample (Some pool)).Auxdist.data []))
        pools)
    [ (2, 1, 1_000); (2, 11, 1_000); (3, 11, 1_000); (5, 11, 1_000); (31, 11, 1_000);
      (61, 11, 1_000); (61, 3, 1_000); (62, 3, 1_000); (63, 11, 1_000); (125, 2, 1_000);
      (100, 7, 237); (100, 7, 62); (100, 7, 61); (200, 11, 1_000); (7, 20, 1_000);
      (2_000, 11, 120_000); (2_000, 11, 4_321) ]

let test_oracle_datasets () =
  List.iter
    (fun (spec : Datagen.Spec.t) ->
      let frame, cols = dataset spec in
      let m = List.length cols in
      let rng = Rng.create spec.Datagen.Spec.id in
      let name = spec.Datagen.Spec.name in
      let alpha = Config.default.Config.alpha in
      let check samples =
        let oracle =
          Auxdist.ci_oracle ~alpha ~max_strata:Config.max_strata
            ~min_effect:Config.min_effect samples
        in
        let columns = Auxdist.columns samples in
        let cards = Array.of_list samples.Auxdist.cards in
        for _ = 1 to 100 do
          let i = Rng.int rng m and j = Rng.int rng m in
          let cond = List.init (Rng.int rng 3) (fun _ -> Rng.int rng m) in
          let ci =
            Ci.make ~max_strata:Config.max_strata ~min_effect:Config.min_effect
              ~alpha ~kx:cards.(i) ~ky:cards.(j) ()
          in
          let expected =
            Ci.test ci columns.(i) columns.(j)
              (List.map (fun k -> columns.(k)) cond)
              (List.map (fun k -> cards.(k)) cond)
          in
          if oracle i j cond <> expected.Ci.independent then
            Alcotest.failf "%s: ci_oracle %d %d differs from Ci.test" name i j
        done
      in
      check
        (Auxdist.circular_shift ~max_shifts:Config.max_shifts
           ~max_samples:Config.max_samples frame cols);
      check (Auxdist.identity frame cols))
    Datagen.Spec.all

(* The shared-popcount path at synthesis' own settings: on each
   dataset's sampled indicators, each column's popcount is its unpacked
   sum, and 200 random tests (k = 0, 1, 2 in turn) count the same
   tables as [Contingency.conditional] over the unpacked columns and
   evaluate bit for bit like [Ci.test]. *)
let test_kernel_datasets () =
  List.iter
    (fun (spec : Datagen.Spec.t) ->
      let frame, cols = dataset spec in
      let samples =
        Auxdist.circular_shift ~max_shifts:Config.max_shifts
          ~max_samples:Config.max_samples frame cols
      in
      let n = samples.Auxdist.n_samples in
      let bits =
        match samples.Auxdist.data with
        | Auxdist.Indicators bits -> bits
        | Auxdist.Codes _ -> Alcotest.fail "circular_shift gave codes"
      in
      let columns = Auxdist.columns samples in
      Array.iteri
        (fun k c ->
          Alcotest.(check int) "popcount = unpacked sum"
            (Array.fold_left ( + ) 0 columns.(k)) c.Bits.ones)
        bits;
      let ci =
        Ci.make ~max_strata:Config.max_strata ~min_effect:Config.min_effect
          ~alpha:Config.default.Config.alpha ~kx:2 ~ky:2 ()
      in
      let m = Array.length bits in
      let rng = Rng.create (100 + spec.Datagen.Spec.id) in
      for t = 0 to 199 do
        let i = Rng.int rng m and j = Rng.int rng m in
        let cond = List.init (t mod 3) (fun _ -> Rng.int rng m) in
        let zs = List.map (fun k -> columns.(k)) cond in
        let cards = List.map (fun _ -> 2) cond in
        let tables =
          Bits.conditional ~max_strata:Config.max_strata ~n bits.(i) bits.(j)
            (List.map (fun k -> bits.(k)) cond)
        in
        if
          tables
          <> Contingency.conditional ~kx:2 ~ky:2 ~max_strata:Config.max_strata
               columns.(i) columns.(j) zs cards
        then Alcotest.failf "%s: tables differ" spec.Datagen.Spec.name;
        let r = Ci.evaluate ci tables
        and expected = Ci.test ci columns.(i) columns.(j) zs cards in
        if not (same_result r expected) then
          Alcotest.failf "%s: result %s, Ci.test %s" spec.Datagen.Spec.name
            (pp_result r) (pp_result expected)
      done)
    Datagen.Spec.all

let () =
  Alcotest.run "ci_differential"
    [ ( "kernel",
        [ Alcotest.test_case "bit layout" `Quick test_bits_layout ]
        @ List.map QCheck_alcotest.to_alcotest [ qcheck_kernel ]
        @ [ Alcotest.test_case "generator reaches every verdict" `Quick
              test_generator_reaches_verdicts;
            Alcotest.test_case "directed edges" `Quick test_kernel_edges ] );
      ( "datasets",
        [ Alcotest.test_case "sampler = oracle sampler" `Quick test_sampler_datasets;
          Alcotest.test_case "sampler edges, pool sizes 0/2/4" `Quick test_sampler_edges;
          Alcotest.test_case "ci_oracle = Ci.test" `Quick test_oracle_datasets;
          Alcotest.test_case "shared popcounts at synthesis settings" `Quick
            test_kernel_datasets ] ) ]
