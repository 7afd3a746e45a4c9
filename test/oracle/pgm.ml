(* List-based PDAGs, Meek's rules, MEC enumeration and the PC phases
   over boolean adjacency matrices: every rule rebuilds its neighbour
   lists from the matrix rows, and every branch copies both matrices.
   This is the reference the bit-set [Pgm.Pdag], [Pgm.Meek],
   [Pgm.Enumerate] and [Pgm.Pc] must reproduce exactly — the same
   graphs, and the same DAGs in the same order.

   Self-contained: a DAG is its directed edge list, [(u, v)] sorted by
   [u] then [v], and the PC skeleton runs sequentially. *)

module Pdag = struct
  type t = {
    n : int;
    directed : bool array array;   (* directed.(u).(v) : u -> v *)
    undirected : bool array array; (* symmetric *)
  }

  let create n =
    { n;
      directed = Array.make_matrix n n false;
      undirected = Array.make_matrix n n false }

  let size t = t.n

  let copy t =
    { n = t.n;
      directed = Array.map Array.copy t.directed;
      undirected = Array.map Array.copy t.undirected }

  let has_directed t u v = t.directed.(u).(v)
  let has_undirected t u v = t.undirected.(u).(v)
  let adjacent t u v = t.directed.(u).(v) || t.directed.(v).(u) || t.undirected.(u).(v)

  let add_undirected t u v =
    if u = v then invalid_arg "Pdag.add_undirected: self loop";
    t.undirected.(u).(v) <- true;
    t.undirected.(v).(u) <- true

  let remove_edge t u v =
    t.undirected.(u).(v) <- false;
    t.undirected.(v).(u) <- false;
    t.directed.(u).(v) <- false;
    t.directed.(v).(u) <- false

  let orient t u v =
    t.undirected.(u).(v) <- false;
    t.undirected.(v).(u) <- false;
    t.directed.(v).(u) <- false;
    t.directed.(u).(v) <- true

  let complete n =
    let t = create n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        add_undirected t u v
      done
    done;
    t

  let neighbors t v =
    let acc = ref [] in
    for u = t.n - 1 downto 0 do
      if adjacent t u v then acc := u :: !acc
    done;
    !acc

  let undirected_neighbors t v =
    let acc = ref [] in
    for u = t.n - 1 downto 0 do
      if t.undirected.(u).(v) then acc := u :: !acc
    done;
    !acc

  let parents t v =
    let acc = ref [] in
    for u = t.n - 1 downto 0 do
      if t.directed.(u).(v) then acc := u :: !acc
    done;
    !acc

  let children t v =
    let acc = ref [] in
    for u = t.n - 1 downto 0 do
      if t.directed.(v).(u) then acc := u :: !acc
    done;
    !acc

  let directed_edges t =
    let acc = ref [] in
    for u = t.n - 1 downto 0 do
      for v = t.n - 1 downto 0 do
        if t.directed.(u).(v) then acc := (u, v) :: !acc
      done
    done;
    !acc

  let undirected_edges t =
    let acc = ref [] in
    for u = t.n - 1 downto 0 do
      for v = u - 1 downto 0 do
        if t.undirected.(u).(v) then acc := (v, u) :: !acc
      done
    done;
    !acc

  let directed_reaches t u v =
    let visited = Array.make t.n false in
    let rec go x =
      if x = v then true
      else if visited.(x) then false
      else begin
        visited.(x) <- true;
        List.exists go (children t x)
      end
    in
    go u

  (* no directed edge u -> v closes a path v ~> u *)
  let acyclic t =
    List.for_all (fun (u, v) -> not (directed_reaches t v u)) (directed_edges t)
end

module Meek = struct
  let rule1 g =
    let n = Pdag.size g in
    let changed = ref false in
    for b = 0 to n - 1 do
      List.iter
        (fun a ->
          List.iter
            (fun c ->
              if c <> a && not (Pdag.adjacent g a c) then begin
                Pdag.orient g b c;
                changed := true
              end)
            (Pdag.undirected_neighbors g b))
        (Pdag.parents g b)
    done;
    !changed

  let rule2 g =
    let n = Pdag.size g in
    let changed = ref false in
    for a = 0 to n - 1 do
      List.iter
        (fun c ->
          let exists_chain =
            List.exists (fun b -> Pdag.has_directed g b c) (Pdag.children g a)
          in
          if exists_chain then begin
            Pdag.orient g a c;
            changed := true
          end)
        (Pdag.undirected_neighbors g a)
    done;
    !changed

  let rule3 g =
    let n = Pdag.size g in
    let changed = ref false in
    for a = 0 to n - 1 do
      List.iter
        (fun b ->
          let candidates =
            List.filter (fun x -> Pdag.has_directed g x b) (Pdag.undirected_neighbors g a)
          in
          let rec pairs = function
            | [] -> false
            | c :: rest ->
              List.exists (fun d -> not (Pdag.adjacent g c d)) rest || pairs rest
          in
          if pairs candidates then begin
            Pdag.orient g a b;
            changed := true
          end)
        (Pdag.undirected_neighbors g a)
    done;
    !changed

  let rule4 g =
    let n = Pdag.size g in
    let changed = ref false in
    for a = 0 to n - 1 do
      List.iter
        (fun b ->
          let found =
            List.exists
              (fun d ->
                Pdag.has_directed g d b && Pdag.adjacent g a d
                && List.exists
                     (fun c ->
                       Pdag.has_directed g c d
                       && Pdag.adjacent g a c
                       && not (Pdag.adjacent g b c))
                     (Pdag.parents g d))
              (Pdag.parents g b)
          in
          if found then begin
            Pdag.orient g a b;
            changed := true
          end)
        (Pdag.undirected_neighbors g a)
    done;
    !changed

  let close g =
    let continue = ref true in
    while !continue do
      let c1 = rule1 g in
      let c2 = rule2 g in
      let c3 = rule3 g in
      let c4 = rule4 g in
      continue := c1 || c2 || c3 || c4
    done;
    g
end

module Enumerate = struct
  let creates_new_collider g u v =
    List.exists (fun x -> x <> u && not (Pdag.adjacent g x u)) (Pdag.parents g v)

  let creates_cycle g u v = Pdag.directed_reaches g v u
  let admissible g u v = not (creates_new_collider g u v) && not (creates_cycle g u v)

  exception Limit_reached

  (* The DAGs (as directed edge lists), the truncation flag and the
     number of Meek closures run. Truncated means a DAG past the first
     [max_dags] exists. *)
  let consistent_extensions ~max_dags cpdag =
    let out = ref [] in
    let count = ref 0 in
    let closures = ref 0 in
    let close g =
      incr closures;
      Meek.close g
    in
    let emit g =
      if Pdag.acyclic g then begin
        if !count = max_dags then raise Limit_reached;
        out := Pdag.directed_edges g :: !out;
        incr count
      end
    in
    let rec go g =
      match Pdag.undirected_edges g with
      | [] -> emit g
      | (u, v) :: _ ->
        List.iter
          (fun (a, b) ->
            if admissible g a b then begin
              let g' = Pdag.copy g in
              Pdag.orient g' a b;
              ignore (close g');
              go g'
            end)
          [ (u, v); (v, u) ]
    in
    let truncated =
      try
        go (close (Pdag.copy cpdag));
        false
      with Limit_reached -> true
    in
    (List.rev !out, truncated, !closures)
end

(* Stable PC, run sequentially: skeleton, colliders, Meek. *)
module Pc = struct
  let sepset_key i j = (min i j, max i j)

  let rec subsets_of_size k items =
    if k = 0 then [ [] ]
    else
      match items with
      | [] -> []
      | x :: rest ->
        List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
        @ subsets_of_size k rest

  let skeleton ~n ~max_cond indep =
    let g = Pdag.complete n in
    let sepsets = Hashtbl.create 64 in
    let level = ref 0 in
    let continue = ref true in
    while !continue && !level <= max_cond do
      let l = !level in
      let adj = Array.init n (Pdag.neighbors g) in
      let edges = Pdag.undirected_edges g in
      let test_edge (i, j) =
        let adj_i = List.filter (fun x -> x <> j) adj.(i) in
        let adj_j = List.filter (fun x -> x <> i) adj.(j) in
        let deeper = List.length adj_i > l || List.length adj_j > l in
        let candidates =
          subsets_of_size l adj_i @ (if l > 0 then subsets_of_size l adj_j else [])
        in
        (deeper, List.find_opt (fun s -> indep i j s) candidates)
      in
      let outcomes = List.map test_edge edges in
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

  let orient_v_structures g sepsets =
    let n = Pdag.size g in
    for k = 0 to n - 1 do
      let nbrs = Pdag.undirected_neighbors g k in
      List.iteri
        (fun a i ->
          List.iteri
            (fun b j ->
              if b > a && not (Pdag.adjacent g i j) then begin
                let sep =
                  Option.value ~default:[] (Hashtbl.find_opt sepsets (sepset_key i j))
                in
                if not (List.mem k sep) then begin
                  if Pdag.has_undirected g i k then Pdag.orient g i k;
                  if Pdag.has_undirected g j k then Pdag.orient g j k
                end
              end)
            nbrs)
        nbrs
    done

  let cpdag ~n ~max_cond indep =
    let g, sepsets = skeleton ~n ~max_cond indep in
    orient_v_structures g sepsets;
    ignore (Meek.close g);
    (g, sepsets)
end
