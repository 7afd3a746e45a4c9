(* Enumerate the DAGs of a Markov equivalence class.

   The paper (Alg. 2) enumerates all DAGs within the MEC learned by
   structure discovery; the authors adapted a Julia PDAG-enumeration
   package for this. We implement consistent-extension enumeration
   directly:

     - pick an undirected edge u - v of the CPDAG;
     - try u -> v and v -> u; an orientation is admissible when it
       (a) creates no directed cycle and (b) creates no *new* v-structure
       (a new collider x -> v <- u with x non-adjacent to u);
     - after each choice, close under Meek's rules, which forces all
       orientations implied by the choice;
     - recurse until no undirected edge remains.

   Meek closure guarantees every emitted DAG has exactly the v-structures
   of the CPDAG, i.e. is a member of the MEC, and that each member is
   produced exactly once (each recursion step splits on the orientation of
   one fixed edge). [max_dags] implements the paper's "maximal enumeration
   of DAGs" cut-off.

   Every step works on the graph's bit-set rows: a branch copies 3n
   words, the split edge and the collider test are a few word scans, and
   a leaf is checked for cycles on its rows and turned into a [Dag.t] in
   one pass. The order of the DAGs is Alg. 2's tie-break order, so the
   split edge is always the first of [Pdag.undirected_edges] and
   [u -> v] is tried before [v -> u]. *)

open Pdag

(* would orienting u -> v create a collider x -> v <- u with x
   non-adjacent to u? Checked from word [k] on. *)
let rec new_collider g u v k =
  let w = g.words in
  k < w
  &&
  let i = (u * w) + k in
  let others = g.children.(i) lor g.parents.(i) lor g.undirected.(i) in
  g.parents.((v * w) + k) land lnot others land lnot (mask u k) <> 0
  || new_collider g u v (k + 1)

let creates_new_collider g u v = new_collider g u v 0

let creates_cycle g u v =
  (* orienting u -> v closes a cycle iff a directed path v ~> u exists *)
  Pdag.directed_reaches g v u

let admissible g u v = not (creates_new_collider g u v) && not (creates_cycle g u v)

exception Limit_reached

(* Depth-first search over orientations. [leaf g] is called on every
   fully directed leaf until [max_dags] of them have said they are DAGs;
   the search then stops at the next acyclic leaf, so it reports
   truncation only when the class has more than [max_dags] members.
   Returns the DAG count and whether the search stopped early, and adds
   the number of Meek closures it ran to the [pgm.enum.closures]
   counter. *)
let search ~max_dags ~leaf cpdag =
  let count = ref 0 and closures = ref 0 in
  let close g =
    incr closures;
    ignore (Meek.close g)
  in
  let rec go g =
    match Pdag.first_undirected g with
    | None ->
      if !count < max_dags then (if leaf g then incr count)
      else if Pdag.acyclic g then raise Limit_reached
    | Some (u, v) ->
      List.iter
        (fun (a, b) ->
          if admissible g a b then begin
            let g' = Pdag.copy g in
            Pdag.orient g' a b;
            close g';
            go g'
          end)
        [ (u, v); (v, u) ]
  in
  let truncated =
    try
      let root = Pdag.copy cpdag in
      close root;
      go root;
      false
    with Limit_reached -> true
  in
  Obs.Metric.count ~by:!closures "pgm.enum.closures";
  (!count, truncated)

(* All consistent DAG extensions, up to [max_dags]. Returns the list and a
   flag saying whether the enumeration was truncated. *)
let consistent_extensions ~max_dags cpdag =
  let out = ref [] in
  let leaf g =
    match Pdag.to_dag g with
    | Some dag ->
      out := dag :: !out;
      true
    | None -> false
  in
  let _, truncated = search ~max_dags ~leaf cpdag in
  (List.rev !out, truncated)

(* The same search, counting the DAGs without building them. *)
let count_extensions ~max_dags cpdag = search ~max_dags ~leaf:Pdag.acyclic cpdag
