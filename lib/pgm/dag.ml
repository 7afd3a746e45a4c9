(* Directed acyclic graphs over nodes 0 .. n-1.

   The SEM / Bayesian-network view of the data-generating process (paper
   §4.2): every node is an attribute, incoming edges are the generating
   function's arguments. *)

module Int_set = Set.Make (Int)

type t = { n : int; parents : Int_set.t array }

let create n = { n; parents = Array.init n (fun _ -> Int_set.empty) }

let size t = t.n

let parents t v = Int_set.elements t.parents.(v)
let parent_set t v = t.parents.(v)

let children t v =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    if Int_set.mem v t.parents.(u) then acc := u :: !acc
  done;
  !acc

let has_edge t u v = Int_set.mem u t.parents.(v)

let check_edge n u v =
  if u = v then invalid_arg "Dag.add_edge: self loop";
  if u < 0 || v < 0 || u >= n || v >= n then invalid_arg "Dag.add_edge: out of range"

let add_edge t u v =
  check_edge t.n u v;
  let parents = Array.copy t.parents in
  parents.(v) <- Int_set.add u parents.(v);
  { t with parents }

let remove_edge t u v =
  let parents = Array.copy t.parents in
  parents.(v) <- Int_set.remove u parents.(v);
  { t with parents }

(* One parents array for the whole list: the same sets, built by the
   same insertions in the same order, as folding [add_edge], without
   copying the array per edge. *)
let of_edges n edges =
  let t = create n in
  List.iter
    (fun (u, v) ->
      check_edge n u v;
      t.parents.(v) <- Int_set.add u t.parents.(v))
    edges;
  t

let edges t =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    Int_set.iter (fun u -> acc := (u, v) :: !acc) t.parents.(v)
  done;
  !acc

let edge_count t =
  Array.fold_left (fun acc s -> acc + Int_set.cardinal s) 0 t.parents

(* Kahn's algorithm. Returns [None] on a cycle, which doubles as the
   acyclicity check. *)
let topological_sort t =
  let indeg = Array.map Int_set.cardinal t.parents in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr seen;
    List.iter
      (fun c ->
        indeg.(c) <- indeg.(c) - 1;
        if indeg.(c) = 0 then Queue.add c queue)
      (children t v)
  done;
  if !seen = t.n then Some (List.rev !order) else None

let is_acyclic t = topological_sort t <> None

(* Is there a directed path from [u] to [v]? *)
let reaches t u v =
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

let equal a b =
  a.n = b.n && Array.for_all2 Int_set.equal a.parents b.parents

let compare a b =
  let c = Int.compare a.n b.n in
  if c <> 0 then c
  else begin
    let rec go i =
      if i >= a.n then 0
      else
        let c = Int_set.compare a.parents.(i) b.parents.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

(* Unordered v-structures u -> v <- w with u, w non-adjacent, as
   (min u w, v, max u w) triples. *)
let v_structures t =
  let adjacent x y = has_edge t x y || has_edge t y x in
  let acc = ref [] in
  for v = 0 to t.n - 1 do
    let ps = parents t v in
    List.iteri
      (fun i u ->
        List.iteri
          (fun j w -> if j > i && not (adjacent u w) then acc := (min u w, v, max u w) :: !acc)
          ps)
      ps
  done;
  List.sort Stdlib.compare !acc

let pp ppf t =
  Fmt.pf ppf "@[<v>digraph (%d nodes):@,%a@]" t.n
    Fmt.(list ~sep:cut (fun ppf (u, v) -> Fmt.pf ppf "  %d -> %d" u v))
    (edges t)
