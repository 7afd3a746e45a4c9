(* Histogram-based HAVING fill: the [Guardrail.Fill.fill_stmt_sketch]
   that allocated one [card]-wide count array per determinant group and
   scanned all of it for the arg-max, before the fill moved to one
   touched-reset scratch row walked through the CSR index
   ([Dataframe.Group.iter_modes]). Groups come from [Group.make]; the
   histograms are counted here, one row at a time. The differential
   suite checks statements, coverage, loss and support bit for bit. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Group = Dataframe.Group
module Domain = Dataframe.Domain
module Config = Guardrail.Config
module Dsl = Guardrail.Dsl
module Fill = Guardrail.Fill
module Sketch = Guardrail.Sketch

let range_width = 4

(* result.(g).(c): rows of group [g] whose code is [c] *)
let histograms g codes ~card =
  let h = Array.init (Group.n_groups g) (fun _ -> Array.make card 0) in
  Array.iteri
    (fun i gid -> h.(gid).(codes.(i)) <- h.(gid).(codes.(i)) + 1)
    (Group.ids g);
  h

(* densest run of at most [width] adjacent bins, ties to the narrower
   then leftmost window *)
let best_window hist nbins width =
  let best_lo = ref 0 and best_hi = ref (-1) and best_mass = ref (-1) in
  for lo = 0 to nbins - 1 do
    let mass = ref 0 in
    for hi = lo to min (nbins - 1) (lo + width - 1) do
      mass := !mass + hist.(hi);
      if !mass > !best_mass || (!mass = !best_mass && hi - lo < !best_hi - !best_lo)
      then begin
        best_lo := lo;
        best_hi := hi;
        best_mass := !mass
      end
    done
  done;
  (!best_lo, !best_hi, !best_mass)

let fill_stmt_sketch frame ~epsilon (sk : Sketch.stmt_sketch) =
  let n = Frame.nrows frame in
  if n = 0 then None
  else begin
    let given = sk.Sketch.given and on = sk.Sketch.on in
    let g =
      Group.make
        (List.map (Frame.attr_codes frame) given)
        (List.map (Frame.attr_card frame) given)
        n
    in
    let hists = histograms g (Frame.attr_codes frame on) ~card:(Frame.attr_card frame on) in
    let best_assignment hist support =
      match Frame.binning frame on with
      | None ->
        let best = ref 0 in
        Array.iteri (fun c k -> if k > hist.(!best) then best := c) hist;
        ( Domain.Eq (Dataframe.Column.value_of_code (Frame.column frame on) !best),
          support - hist.(!best) )
      | Some b ->
        let nbins = Domain.n_bins b in
        let lo, hi, mass = best_window hist nbins range_width in
        if hist.(nbins) > mass || hi < lo then
          (Domain.Eq Value.Null, support - hist.(nbins))
        else (Domain.window_atom b ~lo ~hi, support - mass)
    in
    let branches = ref [] and loss = ref 0 and support = ref 0 in
    for gid = Group.n_groups g - 1 downto 0 do
      let size = Group.size g gid in
      let assignment, l = best_assignment hists.(gid) size in
      if size >= Config.min_support && float_of_int l <= float_of_int size *. epsilon
      then begin
        let rep = Group.first_row g gid in
        let condition =
          List.map
            (fun a -> Dsl.atom a (Frame.attr_atom frame a (Frame.attr_codes frame a).(rep)))
            given
        in
        branches := Dsl.branch ~condition ~assignment :: !branches;
        loss := !loss + l;
        support := !support + size
      end
    done;
    match !branches with
    | [] -> None
    | branches ->
      Some
        {
          Fill.stmt = Dsl.stmt ~given ~on ~branches;
          coverage = float_of_int !support /. float_of_int n;
          loss = !loss;
          support = !support;
        }
  end
