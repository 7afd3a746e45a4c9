(* Row-at-a-time guardrail checking: one materialized row and one
   [Guardrail.Validator.check_values] probe per row — the pre-VM
   semantics the batch entry points ([violations], [detect], [handle])
   must reproduce exactly. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module V = Guardrail.Validator

(* All violations: rows ascending, statements in program order. *)
let violations c frame =
  let acc = ref [] in
  for i = Frame.nrows frame - 1 downto 0 do
    let vs =
      List.map
        (fun (v : V.violation) -> { v with V.row = i })
        (V.check_values c (Frame.row frame i))
    in
    acc := vs @ !acc
  done;
  !acc

let detect c frame =
  let flags = Array.make (Frame.nrows frame) false in
  List.iter (fun (v : V.violation) -> flags.(v.V.row) <- true) (violations c frame);
  flags

(* The four strategies, repairing one cell at a time. *)
let handle ?(strategy = V.Ignore) c frame =
  let vs = violations c frame in
  let fold cell =
    List.fold_left
      (fun f (v : V.violation) -> Frame.set f v.V.row v.V.stmt.Guardrail.Dsl.on (cell v))
      frame vs
  in
  match strategy with
  | V.Ignore -> (frame, vs)
  | V.Raise ->
    (match vs with
     | [] -> (frame, [])
     | v :: _ -> raise (V.Violation_error (V.describe (Frame.schema frame) v)))
  | V.Coerce -> (fold (fun _ -> Value.Null), vs)
  | V.Rectify -> (fold (fun v -> v.V.expected), vs)
