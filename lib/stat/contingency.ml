(* Contingency tables over integer-coded columns.

   These feed both the conditional-independence tests that drive PC
   structure learning and the FD baselines' violation counting.

   Stratification is delegated to the shared group-by kernel
   [Dataframe.Group]: [conditional] counts each stratum's two-way table
   off a dense group index. [Bits.conditional] counts the same tables
   for bit-packed 0/1 columns. *)

module Group = Dataframe.Group

type table = { counts : int array array; kx : int; ky : int; total : int }

let get t x y = t.counts.(x).(y)

let row_marginals t =
  Array.map (fun row -> Array.fold_left ( + ) 0 row) t.counts

let col_marginals t =
  let m = Array.make t.ky 0 in
  Array.iter (fun row -> Array.iteri (fun j c -> m.(j) <- m.(j) + c) row) t.counts;
  m

(* Two-way table of codes [xs] against [ys] with cardinalities [kx], [ky]. *)
let two_way ~kx ~ky xs ys =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Contingency.two_way: length mismatch";
  let counts = Array.make_matrix kx ky 0 in
  for i = 0 to n - 1 do
    let x = xs.(i) and y = ys.(i) in
    counts.(x).(y) <- counts.(x).(y) + 1
  done;
  { counts; kx; ky; total = n }

(* Incremental sufficient statistics: extend a two-way table over the
   first [base] rows with rows [base, n) of append-extended code
   arrays, growing to cardinalities [kx]/[ky] (dictionary encoding is
   append-only, so existing codes keep their cells). Bit-identical to
   recounting with [two_way ~kx ~ky xs ys] while touching only the
   delta rows. *)
let extend t ~kx ~ky xs ys ~base =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Contingency.extend: length mismatch";
  if base <> t.total then invalid_arg "Contingency.extend: base <> total";
  if n < base then invalid_arg "Contingency.extend: fewer rows than the base";
  if kx < t.kx || ky < t.ky then
    invalid_arg "Contingency.extend: cardinalities shrank";
  let counts = Array.make_matrix kx ky 0 in
  for x = 0 to t.kx - 1 do
    Array.blit t.counts.(x) 0 counts.(x) 0 t.ky
  done;
  for i = base to n - 1 do
    let x = xs.(i) and y = ys.(i) in
    counts.(x).(y) <- counts.(x).(y) + 1
  done;
  { counts; kx; ky; total = n }

(* Cap on distinct strata x kx x ky: very high-cardinality variables
   would otherwise demand gigabytes — the practical reason
   identity-sampled CI tests collapse on such data (paper Table 8). *)
let max_cells = 4_000_000

(* Stratified two-way tables: one per non-empty stratum of the conditioning
   set, in first-occurrence order of the strata; [None] past the
   [max_strata] or [max_cells] cap. *)
let conditional ~kx ~ky ~max_strata xs ys cond_codes cond_cards =
  let n = Array.length xs in
  match Group.strata_count ~cap:max_strata cond_cards with
  | None -> None
  | Some _ ->
    let g = Group.make cond_codes cond_cards n in
    let n_groups = Group.n_groups g in
    if n_groups * kx * ky > max_cells then None
    else begin
      let counts = Array.init n_groups (fun _ -> Array.make_matrix kx ky 0) in
      let ids = Group.ids g in
      for i = 0 to n - 1 do
        let c = counts.(ids.(i)) in
        c.(xs.(i)).(ys.(i)) <- c.(xs.(i)).(ys.(i)) + 1
      done;
      Some
        (List.init n_groups (fun gid ->
             { counts = counts.(gid); kx; ky; total = Group.size g gid }))
    end
