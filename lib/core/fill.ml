(* Algorithm 1: fill a program sketch against a dataset.

   For each statement sketch GIVEN det ON dep HAVING [], the warranted
   conditions are the observed combinations of determinant values
   (comb(det) in the paper); unseen combinations have empty support and
   can never be epsilon-valid, so enumerating the full Cartesian product
   is unnecessary. For each condition the best-fit literal is the modal
   dependent value on the matching rows (the arg-min of the 0/1 loss), and
   the branch is kept when it is epsilon-valid.

   Typed domains generalize both sides of a branch. Grouping runs over
   attribute codes — bin codes on binned columns — so a condition atom on
   a numeric determinant is the bin's range atom rather than a raw-value
   equality. On a binned dependent the best-fit assignment is not a
   single literal but the densest contiguous run of bins (up to
   [range_width] of them): the branch becomes [dep BETWEEN lo AND hi]
   over the run's outer edges, and its loss counts the rows outside the
   run. A null-dominated group still degrades to [dep <- NULL]. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Group = Dataframe.Group
module Domain = Dataframe.Domain

type filled = {
  stmt : Dsl.stmt;
  coverage : float;   (* |D^s| / |D| over kept branches *)
  loss : int;         (* summed branch loss over kept branches *)
  support : int;      (* rows covered by kept branches *)
}

(* Most adjacent bins one range assignment may span. *)
let range_width = 4

(* Group rows by determinant combination via the shared kernel: the
   observed combinations are the group index's groups, the support sizes
   its counts, and the per-group modes of dependent codes come off one
   [Group.iter_modes] walk. [groups] shares one cache across the
   sketches of a synthesis run (DAGs of one MEC largely share GIVEN
   sets). Both paths group by attribute codes. *)
let group_by_determinants ?groups frame given =
  match groups with
  | Some cache -> Group.Cache.get cache given
  | None ->
    let det_codes = List.map (fun c -> Frame.attr_codes frame c) given in
    let det_cards = List.map (fun c -> Frame.attr_card frame c) given in
    Group.make det_codes det_cards (Frame.nrows frame)

(* Densest run of at most [width] adjacent bins in
   [hist.(base .. base + nbins - 1)]: (lo, hi, mass), maximizing mass,
   ties to the narrower then leftmost window — so the result is
   deterministic and as tight as possible. *)
let best_window hist base nbins width =
  let best_lo = ref 0 and best_hi = ref (-1) and best_mass = ref (-1) in
  for lo = 0 to nbins - 1 do
    let mass = ref 0 in
    for hi = lo to min (nbins - 1) (lo + width - 1) do
      mass := !mass + hist.(base + hi);
      let better =
        !mass > !best_mass
        || (!mass = !best_mass && hi - lo < !best_hi - !best_lo)
      in
      if better then begin
        best_lo := lo;
        best_hi := hi;
        best_mass := !mass
      end
    done
  done;
  (!best_lo, !best_hi, !best_mass)

(* FillStmtSketch (Alg. 1, lines 7-20). Returns [None] when no branch
   survives the epsilon-validity check (line 20: ⊥). *)
let fill_stmt_sketch ?groups frame ~epsilon
    (sk : Sketch.stmt_sketch) =
  Obs.Span.with_ "fill.sketch"
    ~attrs:(fun () ->
      [
        ("given", String.concat "," (List.map string_of_int sk.Sketch.given));
        ("on", string_of_int sk.Sketch.on);
      ])
  @@ fun () ->
  let n = Frame.nrows frame in
  if n = 0 then None
  else begin
    let g = group_by_determinants ?groups frame sk.Sketch.given in
    let given_codes =
      List.map (fun c -> (c, Frame.attr_codes frame c)) sk.Sketch.given
    in
    let on = sk.Sketch.on in
    let on_codes = Frame.attr_codes frame on in
    let on_card = Frame.attr_card frame on in
    let on_binning = Frame.binning frame on in
    let on_dict = Dataframe.Column.dict (Frame.column frame on) in
    let branches = ref [] in
    let total_loss = ref 0 in
    let total_support = ref 0 in
    (* one group: its best assignment and that assignment's loss, the
       assignment built only for a branch that is kept *)
    let score gid counts ~base ~mode ~count =
      let support = Group.size g gid in
      let keep loss assignment =
        (* epsilon-validity (line 15) plus a support floor to keep
           singleton conditions from vacuously passing *)
        if
          support >= Config.min_support
          && float_of_int loss <= float_of_int support *. epsilon
        then begin
          let rep_row = Group.first_row g gid in
          let condition =
            List.map
              (fun (attr, codes) ->
                Dsl.atom attr (Frame.attr_atom frame attr codes.(rep_row)))
              given_codes
          in
          branches := Dsl.branch ~condition ~assignment:(assignment ()) :: !branches;
          total_loss := !total_loss + loss;
          total_support := !total_support + support
        end
      in
      match on_binning with
      | None -> keep (support - count) (fun () -> Domain.Eq on_dict.(mode))
      | Some b ->
        let nbins = Domain.n_bins b in
        (* code [nbins] is the null bin *)
        let lo, hi, mass = best_window counts base nbins range_width in
        let nulls = counts.(base + nbins) in
        if nulls > mass || hi < lo then
          keep (support - nulls) (fun () -> Domain.Eq Value.Null)
        else keep (support - mass) (fun () -> Domain.window_atom b ~lo ~hi)
    in
    Group.iter_modes g on_codes ~card:on_card score;
    Obs.Metric.count ~by:(Group.n_groups g) "fill.groups";
    match List.rev !branches with
    | [] -> None
    | branches ->
      let stmt = Dsl.stmt ~given:sk.Sketch.given ~on:sk.Sketch.on ~branches in
      Some
        {
          stmt;
          coverage = float_of_int !total_support /. float_of_int n;
          loss = !total_loss;
          support = !total_support;
        }
  end
