(* The eager group-by construction [Dataframe.Group.make] used before
   it fused key encoding into one pass and built its CSR index on
   demand: raw mixed-radix ids for every row, densified through a flat
   remap (or a hashtable over code tuples past the cap), then a counting
   sort into offsets and grouped row indices. The differential property
   in [test_dataframe] checks ids, offsets, first rows, the row index
   and the per-group modes against it. *)

type t = {
  ids : int array;      (* row -> dense group id, first-occurrence order *)
  n_groups : int;
  offsets : int array;  (* length n_groups + 1 *)
  rows : int array;     (* row indices, grouped; ascending within a group *)
}

(* Raw mixed-radix ids (not densified): id(i) = fold (id * card + code). *)
let raw_ids codes cards n =
  let ids = Array.make n 0 in
  List.iter2
    (fun cs card ->
      for i = 0 to n - 1 do
        ids.(i) <- (ids.(i) * card) + cs.(i)
      done)
    codes cards;
  ids

(* Densify raw ids bounded by [space] via a flat remap array; dense ids
   are assigned in order of first occurrence. *)
let densify ids space =
  let n = Array.length ids in
  let remap = Array.make space (-1) in
  let out = Array.make n 0 in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let d = remap.(ids.(i)) in
    if d >= 0 then out.(i) <- d
    else begin
      remap.(ids.(i)) <- !next;
      out.(i) <- !next;
      incr next
    end
  done;
  (out, !next)

(* Hashed fallback: same dense first-occurrence ids, any key space. *)
let hashed_ids codes n =
  let arrs = Array.of_list codes in
  let d = Array.length arrs in
  let tbl : (int array, int) Hashtbl.t = Hashtbl.create 256 in
  let out = Array.make n 0 in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let key = Array.init d (fun j -> arrs.(j).(i)) in
    match Hashtbl.find_opt tbl key with
    | Some g -> out.(i) <- g
    | None ->
      Hashtbl.add tbl key !next;
      out.(i) <- !next;
      incr next
  done;
  (out, !next)

let csr ids n_groups =
  let n = Array.length ids in
  let offsets = Array.make (n_groups + 1) 0 in
  Array.iter (fun g -> offsets.(g + 1) <- offsets.(g + 1) + 1) ids;
  for g = 0 to n_groups - 1 do
    offsets.(g + 1) <- offsets.(g + 1) + offsets.(g)
  done;
  let cursor = Array.sub offsets 0 (max n_groups 1) in
  let rows = Array.make n 0 in
  for i = 0 to n - 1 do
    let g = ids.(i) in
    rows.(cursor.(g)) <- i;
    cursor.(g) <- cursor.(g) + 1
  done;
  (offsets, rows)

let make ?(cap = Dataframe.Group.default_cap) codes cards n =
  let ids, n_groups =
    if n = 0 then ([||], 0)
    else if codes = [] then (Array.make n 0, 1)
    else
      match Dataframe.Group.strata_count ~cap cards with
      | Some space -> densify (raw_ids codes cards n) space
      | None -> hashed_ids codes n
  in
  let offsets, rows = csr ids n_groups in
  { ids; n_groups; offsets; rows }

let first_row t g = t.rows.(t.offsets.(g))

(* Per group in id order: its counts of [codes] (length [card]), the
   most common code (ties to the lowest) and that code's count. *)
let modes t codes ~card =
  List.init t.n_groups (fun g ->
      let hist = Array.make card 0 in
      for k = t.offsets.(g) to t.offsets.(g + 1) - 1 do
        let c = codes.(t.rows.(k)) in
        hist.(c) <- hist.(c) + 1
      done;
      let mode = ref 0 in
      Array.iteri (fun c h -> if h > hist.(!mode) then mode := c) hist;
      (g, hist, !mode, hist.(!mode)))
