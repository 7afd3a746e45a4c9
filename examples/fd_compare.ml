(* Compare GUARDRAIL against the FD-discovery baselines (TANE, CTANE, FDX)
   on one synthetic dataset with planted errors — a single-dataset slice
   of the paper's Table 3.

     dune exec examples/fd_compare.exe
*)

module Frame = Dataframe.Frame

let score name flags mask =
  let c = Stat.Metrics.confusion ~predicted:flags ~actual:mask in
  Printf.printf "  %-10s F1 %6.3f  MCC %6.3f  (tp %d, fp %d, fn %d)\n" name
    (Stat.Metrics.f1 c) (Stat.Metrics.mcc c) c.Stat.Metrics.tp c.Stat.Metrics.fp
    c.Stat.Metrics.fn

let () =
  let spec = Datagen.Spec.by_id 9 in
  let built, data = Datagen.Generate.dataset ~n_rows:6000 spec in
  Fmt.pr "Dataset: %a@." Datagen.Spec.pp spec;

  (* protocol of §8.1: discover on the clean split, detect on the
     corrupted split *)
  let train, test = Dataframe.Split.train_test ~seed:11 ~train_fraction:0.5 data in
  let injection = Datagen.Corrupt.inject_any ~seed:21 built test in
  let noisy = injection.Datagen.Corrupt.corrupted in
  let mask = injection.Datagen.Corrupt.mask in
  Printf.printf "Injected %d errors into the %d-row test split\n\n"
    (List.length injection.Datagen.Corrupt.cells)
    (Frame.nrows noisy);

  (* every detector is a GUARDRAIL program, checked by the one
     Validator: the baselines' FDs and CFDs become statements *)
  let detect name prog =
    score name (Guardrail.Validator.detect (Guardrail.Validator.compile prog) noisy) mask
  in
  let result = Guardrail.Synthesize.run train in
  detect "Guardrail" result.Guardrail.Synthesize.program;

  (try detect "TANE" (Baselines.Fd.program train (Baselines.Tane.discover train))
   with Baselines.Tane.Out_of_budget msg ->
     Printf.printf "  %-10s failed: %s\n" "TANE" msg);

  (try detect "CTANE" (Baselines.Ctane.discover train)
   with Baselines.Ctane.Out_of_budget msg ->
     Printf.printf "  %-10s failed: %s\n" "CTANE" msg);

  (try detect "FDX" (Baselines.Fd.program train (Baselines.Fdx.discover train))
   with Baselines.Fdx.Ill_conditioned msg ->
     Printf.printf "  %-10s failed: ill-conditioned (%s)\n" "FDX" msg);

  (* the discovered rules themselves, for inspection *)
  print_endline "\nGUARDRAIL constraints:";
  Fmt.pr "%a@." Guardrail.Pretty.pp_prog_summary result.Guardrail.Synthesize.program
