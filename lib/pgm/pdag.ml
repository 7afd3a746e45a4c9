(* Partially directed graphs: the output representation of the PC
   algorithm (a CPDAG summarising a Markov equivalence class).

   Edges are either directed (u -> v) or undirected (u - v). The structure
   is mutable for the orientation phases; callers clone before branching.

   Each node keeps its children, parents and undirected neighbours as
   bit-set rows of [words] ints, 62 nodes to a word as in [Stat.Bits]:
   at most 40 columns per dataset means one word per row, so a copy is
   3n words and Meek's rules test whole neighbourhoods with one AND.
   [parents] mirrors [children] so both directions of a node are one
   row read away. *)

type t = {
  n : int;
  words : int;
  children : int array;   (* bit v of row u : u -> v *)
  parents : int array;    (* bit u of row v : u -> v *)
  undirected : int array; (* symmetric *)
}

(* [Stat.Bits]' word width, written as a literal so that [/] and [mod]
   by it compile to multiplies and shifts rather than divisions *)
let width = 62

let create n =
  let words = (n + width - 1) / width in
  let rows () = Array.make (n * words) 0 in
  { n; words; children = rows (); parents = rows (); undirected = rows () }

let size t = t.n

let copy t =
  { t with
    children = Array.copy t.children;
    parents = Array.copy t.parents;
    undirected = Array.copy t.undirected }

let[@inline] index t u v = (u * t.words) + (v / width)
let[@inline] bit v = 1 lsl (v mod width)
let node k m = (k * width) + Stat.Bits.lowest_bit m
let mask x k = if x / width = k then bit x else 0
let[@inline] mem t rows u v = rows.(index t u v) land bit v <> 0

let[@inline] set t rows u v =
  let i = index t u v in
  rows.(i) <- rows.(i) lor bit v

let[@inline] clear t rows u v =
  let i = index t u v in
  rows.(i) <- rows.(i) land lnot (bit v)

let has_directed t u v = mem t t.children u v
let has_undirected t u v = mem t t.undirected u v
let adjacent t u v = has_directed t u v || has_directed t v u || has_undirected t u v

let add_undirected t u v =
  if u = v then invalid_arg "Pdag.add_undirected: self loop";
  set t t.undirected u v;
  set t t.undirected v u

let clear_directed t u v =
  clear t t.children u v;
  clear t t.parents v u

let remove_edge t u v =
  clear t t.undirected u v;
  clear t t.undirected v u;
  clear_directed t u v;
  clear_directed t v u

(* Turn the edge between u and v (in whatever state) into u -> v. *)
let orient t u v =
  if u = v then invalid_arg "Pdag.orient: self loop";
  clear t t.undirected u v;
  clear t t.undirected v u;
  clear_directed t v u;
  set t t.children u v;
  set t t.parents v u

let complete n =
  let t = create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      add_undirected t u v
    done
  done;
  t

(* [f] folded over the nodes of row [x] of [rows], ascending *)
let fold_row t rows x f init =
  let acc = ref init in
  for k = 0 to t.words - 1 do
    let m = ref rows.((x * t.words) + k) in
    while !m <> 0 do
      acc := f (node k !m) !acc;
      m := !m land (!m - 1)
    done
  done;
  !acc

let members t rows x = List.rev (fold_row t rows x List.cons [])

let neighbors t v =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    if adjacent t u v then acc := u :: !acc
  done;
  !acc

let undirected_neighbors t v = members t t.undirected v
let parents t v = members t t.parents v
let children t v = members t t.children v

(* [(u, v)] for every [v] of row [u] that [keep u v], by [u] then [v] *)
let edges_of t rows keep =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    let row = fold_row t rows u (fun v row -> if keep u v then (u, v) :: row else row) [] in
    acc := List.rev_append row !acc
  done;
  !acc

let directed_edges t = edges_of t t.children (fun _ _ -> true)

let undirected_edges t =
  List.map (fun (u, v) -> (v, u)) (edges_of t t.undirected (fun u v -> v < u))

let first_undirected t =
  (* node [u] from word [k] on: its least neighbour [v < u] *)
  let rec scan u k =
    if u >= t.n then None
    else if k > u / width then scan (u + 1) 0
    else
      let m = t.undirected.((u * t.words) + k) in
      let m = if k = u / width then m land (bit u - 1) else m in
      if m <> 0 then Some (node k m, u) else scan u (k + 1)
  in
  scan 0 0

let fully_directed t = Array.for_all (fun w -> w = 0) t.undirected

(* Depth-first search along children: a cycle is a child found on the
   current path. [visit] marks [v] and scans its children word by word;
   [scan] goes on from child mask [m] of word [k]. *)
let[@inline] marked a v = a.(v / width) land bit v <> 0

let rec visit t finished on_path v =
  on_path.(v / width) <- on_path.(v / width) lor bit v;
  let ok = scan t finished on_path v 0 t.children.(v * t.words) in
  on_path.(v / width) <- on_path.(v / width) land lnot (bit v);
  finished.(v / width) <- finished.(v / width) lor bit v;
  ok

and scan t finished on_path v k m =
  if m <> 0 then
    let c = node k m in
    (marked finished c || ((not (marked on_path c)) && visit t finished on_path c))
    && scan t finished on_path v k (m land (m - 1))
  else
    k + 1 >= t.words
    || scan t finished on_path v (k + 1) t.children.((v * t.words) + k + 1)

let acyclic t =
  let finished = Array.make t.words 0 and on_path = Array.make t.words 0 in
  let rec from v =
    v >= t.n || ((marked finished v || visit t finished on_path v) && from (v + 1))
  in
  from 0

(* View as a DAG; fails when undirected edges remain or a cycle exists. *)
let to_dag t =
  if fully_directed t && acyclic t then Some (Dag.of_edges t.n (directed_edges t))
  else None

(* Is there a path from u to v using only directed edges? Used for cycle
   avoidance during orientation. Depth first, each node stacked once. *)
let directed_reaches t u v =
  u = v
  ||
  let w = t.words in
  let seen = Array.make w 0 and stack = Array.make t.n u in
  seen.(u / width) <- bit u;
  let top = ref 1 in
  while !top > 0 && not (marked seen v) do
    decr top;
    let x = stack.(!top) in
    for k = 0 to w - 1 do
      let fresh = ref (t.children.((x * w) + k) land lnot seen.(k)) in
      seen.(k) <- seen.(k) lor !fresh;
      while !fresh <> 0 do
        stack.(!top) <- node k !fresh;
        incr top;
        fresh := !fresh land (!fresh - 1)
      done
    done
  done;
  marked seen v

let equal a b =
  a.n = b.n
  && a.children = b.children
  && a.undirected = b.undirected

let pp ppf t =
  Fmt.pf ppf "@[<v>pdag (%d nodes):@,%a%a@]" t.n
    Fmt.(list ~sep:cut (fun ppf (u, v) -> Fmt.pf ppf "  %d -> %d" u v))
    (directed_edges t)
    Fmt.(list ~sep:cut (fun ppf (u, v) -> Fmt.pf ppf "  %d -- %d" u v))
    (undirected_edges t)
