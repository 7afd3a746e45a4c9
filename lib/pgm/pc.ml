(* The PC algorithm (Spirtes-Glymour-Scheines), stable-PC schedule.

   Input: a conditional-independence oracle over variables 0 .. n-1.
   Output: the CPDAG of the Markov equivalence class.

   Phases:
     1. skeleton  - start from the complete graph; for growing conditioning
                    sizes l, remove the edge i-j if some S of size l inside
                    adj(i)\{j} (or adj(j)\{i}) renders i and j independent;
                    remember S as sepset(i, j).
     2. colliders - for every unshielded triple i - k - j, orient i->k<-j
                    when k is not in sepset(i, j).
     3. Meek      - propagate with rules R1-R4.

   The skeleton phase runs the *stable-PC* schedule (Colombo & Maathuis):
   the adjacency structure is frozen at the start of each
   conditioning-set level and every edge of the level is tested against
   that snapshot; removals apply at the round barrier. The outcome is
   therefore independent of the order edges are tested in — which is
   what lets the level's CI tests fan out across a {!Runtime.Pool}
   without changing the result: any pool size (including none) yields
   the same skeleton and separating sets.

   The oracle [indep i j cond] answers "is a_i independent of a_j given
   cond?". The data-driven oracle lives in lib/stat; tests also use exact
   d-separation oracles from Dsep. With a pool, the oracle is called from
   several domains at once and must be pure on shared state. *)

type sepsets = (int * int, int list) Hashtbl.t

let sepset_key i j = (min i j, max i j)

let find_sepset sepsets i j = Hashtbl.find_opt sepsets (sepset_key i j)

(* All subsets of size [k] of [items]. *)
let rec subsets_of_size k items =
  if k = 0 then [ [] ]
  else
    match items with
    | [] -> []
    | x :: rest ->
      let with_x = List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest) in
      with_x @ subsets_of_size k rest

let skeleton ~n ~max_cond ?pool indep =
  let g = Pdag.complete n in
  let sepsets : sepsets = Hashtbl.create 64 in
  let level = ref 0 in
  let continue = ref true in
  while !continue && !level <= max_cond do
    let l = !level in
    (* Round barrier: snapshot adjacency once, test every surviving edge
       against the snapshot, then apply all removals. *)
    let adj = Array.init n (Pdag.neighbors g) in
    let edges = Pdag.undirected_edges g in
    let test_edge (i, j) =
      let adj_i = List.filter (fun x -> x <> j) adj.(i) in
      let adj_j = List.filter (fun x -> x <> i) adj.(j) in
      let deeper = List.length adj_i > l || List.length adj_j > l in
      let candidates =
        subsets_of_size l adj_i
        @ (if l > 0 then subsets_of_size l adj_j else [])
      in
      let rec try_sets = function
        | [] -> None
        | s :: rest -> if indep i j s then Some s else try_sets rest
      in
      (deeper, try_sets candidates)
    in
    let outcomes =
      Obs.Span.with_ "pc.level"
        ~attrs:(fun () ->
          [
            ("level", string_of_int l);
            ("edges", string_of_int (List.length edges));
          ])
        (fun () -> Runtime.Pool.parmap ?pool test_edge edges)
    in
    let worth_continuing = ref false in
    List.iter2
      (fun (i, j) (deeper, sep) ->
        if deeper then worth_continuing := true;
        match sep with
        | Some s ->
          Pdag.remove_edge g i j;
          Hashtbl.replace sepsets (sepset_key i j) s
        | None -> ())
      edges outcomes;
    continue := !worth_continuing;
    incr level
  done;
  (g, sepsets)

(* Orient unshielded colliders. *)
let orient_v_structures g sepsets =
  let n = Pdag.size g in
  for k = 0 to n - 1 do
    let nbrs = Pdag.undirected_neighbors g k in
    List.iteri
      (fun a i ->
        List.iteri
          (fun b j ->
            if b > a && not (Pdag.adjacent g i j) then begin
              let sep = Option.value ~default:[] (find_sepset sepsets i j) in
              if not (List.mem k sep) then begin
                (* i -> k <- j, but never re-orient an edge a previous
                   collider already directed *)
                if Pdag.has_undirected g i k then Pdag.orient g i k;
                if Pdag.has_undirected g j k then Pdag.orient g j k
              end
            end)
          nbrs)
      nbrs
  done

let cpdag ~n ~max_cond ?pool indep =
  let g, sepsets = skeleton ~n ~max_cond ?pool indep in
  orient_v_structures g sepsets;
  ignore (Meek.close g);
  (g, sepsets)
