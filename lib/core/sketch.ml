(* The sketch language (paper Fig. 3) and the non-triviality criteria of
   §4.1.

   A statement sketch fixes the GIVEN and ON clauses and leaves the HAVING
   clause as a hole; a program sketch is a list of statement sketches. The
   sketch of interest is extracted from a DAG over the attributes: each
   node with parents yields GIVEN parents ON node (paper §4.3). *)

module Frame = Dataframe.Frame

type stmt_sketch = { given : int list; on : int }

type prog_sketch = stmt_sketch list

let stmt_sketch ~given ~on =
  if given = [] then invalid_arg "Sketch: empty determinant set";
  if List.mem on given then invalid_arg "Sketch: dependent attribute in GIVEN";
  { given = List.sort_uniq Int.compare given; on }

(* GIVEN Pa(v) ON v for every node with parents; [var_to_col] maps DAG node
   indices to dataframe column indices. *)
let of_dag ?(var_to_col = fun i -> i) dag =
  let n = Pgm.Dag.size dag in
  let acc = ref [] in
  for v = n - 1 downto 0 do
    match Pgm.Dag.parents dag v with
    | [] -> ()
    | parents ->
      acc :=
        stmt_sketch ~given:(List.map var_to_col parents) ~on:(var_to_col v)
        :: !acc
  done;
  !acc

(* Dense composite coding of a column set: observed combinations are mapped
   to 0 .. k-1 in first-occurrence order — exactly the group-by kernel's
   dense ids. Codes are attribute codes — bin codes on binned columns —
   so numeric determinants stratify by bin, not by raw value. *)
let composite_codes frame cols =
  let code_arrays = List.map (fun c -> Frame.attr_codes frame c) cols in
  let cards = List.map (fun c -> Frame.attr_card frame c) cols in
  let g = Dataframe.Group.make code_arrays cards (Frame.nrows frame) in
  (Dataframe.Group.ids g, Dataframe.Group.n_groups g)

(* LNT and GNT test at synthesis' significance level. Both are plain
   significance tests, without the effect-size floor the synthesis CI
   oracle adds. *)
let alpha = Config.default.Config.alpha

(* Local non-triviality (Def. 4.1): the dependent attribute must be
   statistically dependent on the joint determinant set. Tested with a
   chi-square test. *)
let locally_non_trivial frame (s : stmt_sketch) =
  let xs, kx = composite_codes frame s.given in
  let table =
    Stat.Contingency.two_way ~kx ~ky:(Frame.attr_card frame s.on) xs
      (Frame.attr_codes frame s.on)
  in
  let r = Stat.Independence.test_two_way ~alpha table in
  not r.Stat.Independence.independent

(* Global non-triviality (Def. 4.2): every statement sketch must remain
   dependent when conditioning on the determinant set of any other
   statement sketch. We test s against each other sketch s' by a
   conditional chi-square of (on ⊥ given | given'). *)
let gnt_violations frame (p : prog_sketch) =
  let violations = ref [] in
  List.iteri
    (fun i s ->
      List.iteri
        (fun j s' ->
          if i <> j then begin
            let cond_cols =
              List.filter
                (fun c -> c <> s.on && not (List.mem c s.given))
                s'.given
            in
            if cond_cols <> [] then begin
              let xs, kx = composite_codes frame s.given in
              let cond_codes =
                List.map (fun c -> Frame.attr_codes frame c) cond_cols
              in
              let cond_cards =
                List.map (fun c -> Frame.attr_card frame c) cond_cols
              in
              let spec =
                Stat.Ci.make ~max_strata:Config.max_strata ~min_effect:0.0
                  ~alpha ~kx
                  ~ky:(Frame.attr_card frame s.on) ()
              in
              let r =
                Stat.Ci.test spec xs
                  (Frame.attr_codes frame s.on) cond_codes cond_cards
              in
              if r.Stat.Ci.independent then
                violations := (s, s') :: !violations
            end
          end)
        p)
    p;
  List.rev !violations

let pp_stmt_sketch schema ppf (s : stmt_sketch) =
  Fmt.pf ppf "GIVEN %a ON %s HAVING []"
    Fmt.(list ~sep:(any ", ") string)
    (List.map (Dataframe.Schema.name schema) s.given)
    (Dataframe.Schema.name schema s.on)
