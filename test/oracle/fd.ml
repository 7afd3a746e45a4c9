(* Row-at-a-time FD checks: the Hashtbl groupings keyed on value and
   code lists that [Baselines.Fd] replaced with one group-and-mode
   pass. [compile] learns each lhs binding's most common rhs value on a
   training split, ties going to the lowest rhs code; [detect] reads one
   row at a time through [Frame.get]. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Fd = Baselines.Fd

(* g3 violation count: rows to remove so every lhs group has a single
   rhs value. *)
let violation_count frame (fd : Fd.t) =
  let n = Frame.nrows frame in
  let lhs_codes =
    List.map (fun c -> Dataframe.Column.codes (Frame.column frame c)) fd.Fd.lhs
  in
  let rhs_col = Frame.column frame fd.Fd.rhs in
  let rhs_codes = Dataframe.Column.codes rhs_col in
  let rhs_card = Dataframe.Column.cardinality rhs_col in
  let groups : (int list, int array) Hashtbl.t = Hashtbl.create 256 in
  for i = 0 to n - 1 do
    let key = List.map (fun codes -> codes.(i)) lhs_codes in
    let hist =
      match Hashtbl.find_opt groups key with
      | Some h -> h
      | None ->
        let h = Array.make rhs_card 0 in
        Hashtbl.add groups key h;
        h
    in
    hist.(rhs_codes.(i)) <- hist.(rhs_codes.(i)) + 1
  done;
  Hashtbl.fold
    (fun _ hist acc ->
      let total = Array.fold_left ( + ) 0 hist in
      let best = Array.fold_left max 0 hist in
      acc + (total - best))
    groups 0

type detector = {
  fd : Fd.t;
  mapping : (Value.t list, Value.t) Hashtbl.t;
}

let compile train (fd : Fd.t) =
  let n = Frame.nrows train in
  let code v =
    Dataframe.Column.code_of_value (Frame.column train fd.Fd.rhs) v
  in
  let groups : (Value.t list, (Value.t, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 256
  in
  for i = 0 to n - 1 do
    let key = List.map (fun c -> Frame.get train i c) fd.Fd.lhs in
    let hist =
      match Hashtbl.find_opt groups key with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.add groups key h;
        h
    in
    let v = Frame.get train i fd.Fd.rhs in
    Hashtbl.replace hist v (1 + Option.value ~default:0 (Hashtbl.find_opt hist v))
  done;
  let mapping = Hashtbl.create (Hashtbl.length groups) in
  Hashtbl.iter
    (fun key hist ->
      let best = ref None in
      Hashtbl.iter
        (fun v c ->
          match !best with
          | Some (v', c') when c' > c || (c' = c && code v' < code v) -> ()
          | _ -> best := Some (v, c))
        hist;
      match !best with
      | Some (v, _) -> Hashtbl.add mapping key v
      | None -> ())
    groups;
  { fd; mapping }

(* Flag test rows whose rhs deviates from the training mapping; unseen
   lhs combinations are not flagged. *)
let detect detectors test =
  let n = Frame.nrows test in
  let flags = Array.make n false in
  List.iter
    (fun d ->
      for i = 0 to n - 1 do
        if not flags.(i) then begin
          let key = List.map (fun c -> Frame.get test i c) d.fd.Fd.lhs in
          match Hashtbl.find_opt d.mapping key with
          | Some expected ->
            if not (Value.equal (Frame.get test i d.fd.Fd.rhs) expected) then
              flags.(i) <- true
          | None -> ()
        end
      done)
    detectors;
  flags
