(* The one group-by kernel.

   Every hot loop of the synthesis pipeline — conditional-independence
   strata, the HAVING fill's per-GIVEN modes, TANE's stripped
   partitions, BIC family counts, feature-vector dedup — reduces to the
   same primitive: group rows by a tuple of dictionary codes and count.
   This module is that primitive, computed once and shared.

   Key encoding picks between two paths that produce *identical* dense
   group ids (numbered in order of first occurrence):

   - mixed radix: when the product of the column cardinalities fits under
     a cap, each row's composite key is the radix combination of its
     codes; densification is a flat remap array (no hashing at all);
   - hashed: otherwise, a hashtable over the per-row code tuples.

   On top of the dense ids sits a CSR-style index (offsets + row indices
   sorted by group), so callers can walk any group's rows without
   allocating per-group lists. *)

type t = {
  ids : int array;      (* row -> dense group id, first-occurrence order *)
  n_groups : int;
  offsets : int array;  (* length n_groups + 1 *)
  rows : int array;     (* row indices, grouped; ascending within a group *)
}

(* ------------------------------------------------------------------ *)
(* Key encoding *)

(* Product of the cardinalities with early abort: the historical
   [max_strata] cap semantics of [Stat.Contingency.strata] — the fold
   stops multiplying once past the cap, which also avoids overflow on
   absurd cardinality products. *)
let strata_count ~cap cards =
  let prod =
    List.fold_left (fun acc c -> if acc > cap then acc else acc * c) 1 cards
  in
  if prod > cap then None else Some prod

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

(* ------------------------------------------------------------------ *)
(* CSR index *)

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

let default_cap = 65_536

let make ?(cap = default_cap) codes cards n =
  if List.length codes <> List.length cards then
    invalid_arg "Group.make: codes/cards mismatch";
  List.iter
    (fun cs ->
      if Array.length cs <> n then invalid_arg "Group.make: length mismatch")
    codes;
  let ids, n_groups =
    if n = 0 then ([||], 0)
    else if codes = [] then (Array.make n 0, 1)
    else
      match strata_count ~cap cards with
      | Some space -> densify (raw_ids codes cards n) space
      | None -> hashed_ids codes n
  in
  let offsets, rows = csr ids n_groups in
  { ids; n_groups; offsets; rows }

(* Incremental maintenance: extend a grouping computed over the first
   [n_rows g] rows to cover all [n] rows of append-extended code
   arrays. Dense ids are first-occurrence order, which is a pure
   function of the row partition — appending rows can only add new
   groups at the end — so the result is bit-identical to
   [make codes cards n] while only hashing the delta rows: the key →
   id map is rebuilt from each existing group's first row (n_groups
   probes), then delta rows either join an existing group or mint the
   next dense id. *)
let extend g codes n =
  let base = Array.length g.ids in
  if n < base then invalid_arg "Group.extend: fewer rows than the base";
  List.iter
    (fun cs ->
      if Array.length cs <> n then invalid_arg "Group.extend: length mismatch")
    codes;
  let arrs = Array.of_list codes in
  let d = Array.length arrs in
  let key_at i = Array.init d (fun j -> arrs.(j).(i)) in
  let tbl : (int array, int) Hashtbl.t = Hashtbl.create (2 * (g.n_groups + 8)) in
  for gid = 0 to g.n_groups - 1 do
    Hashtbl.replace tbl (key_at g.rows.(g.offsets.(gid))) gid
  done;
  let ids = Array.make n 0 in
  Array.blit g.ids 0 ids 0 base;
  let next = ref g.n_groups in
  for i = base to n - 1 do
    let key = key_at i in
    match Hashtbl.find_opt tbl key with
    | Some gid -> ids.(i) <- gid
    | None ->
      Hashtbl.add tbl key !next;
      ids.(i) <- !next;
      incr next
  done;
  let n_groups = !next in
  let offsets, rows = csr ids n_groups in
  { ids; n_groups; offsets; rows }

let of_codes n codes =
  let codes =
    if Array.length codes = n then codes else Array.sub codes 0 n
  in
  let card = ref 0 in
  Array.iter
    (fun c ->
      if c < 0 then invalid_arg "Group.of_codes: negative code";
      if c >= !card then card := c + 1)
    codes;
  make [ codes ] [ !card ] n

(* ------------------------------------------------------------------ *)
(* Accessors and marginal helpers *)

let ids t = t.ids
let id t i = t.ids.(i)
let n_groups t = t.n_groups
let n_rows t = Array.length t.ids
let offsets t = t.offsets
let row_index t = t.rows
let size t g = t.offsets.(g + 1) - t.offsets.(g)
let counts t = Array.init t.n_groups (size t)
let first_row t g = t.rows.(t.offsets.(g))
let rows_of t g = Array.sub t.rows t.offsets.(g) (size t g)

let iter_rows t g f =
  for k = t.offsets.(g) to t.offsets.(g + 1) - 1 do
    f t.rows.(k)
  done

(* One flat count table per domain for [iter_modes], reused from call
   to call: a fresh table per grouping would be a major-heap allocation
   for the GC to sweep. It is taken out of its cell while in use, so a
   nested call allocates its own, and an exception from the callback
   only costs the next call an allocation. *)
let flat_tables = Stdlib.Domain.DLS.new_key (fun () -> ref [||])

(* Per-group mode of a second code array: the conditional marginal the
   HAVING fill and the FD/CFD detectors read. Two layouts make the same
   calls, chosen by the size of the [n_groups × card] count table:

   - no larger than the row count: one sequential pass over [ids] and
     [codes] counts every row into the flat table, and each group's mode
     is the first maximum of its [card] entries;
   - larger (wide [card], small groups): each group's rows are walked
     through the CSR index into one [card]-wide scratch row, the arg-max
     tracked as the counts grow (a count that ties the best goes to the
     lower code), and after [f] has read the row only the touched
     entries are reset.

   Either way the work is O(rows + card) per grouping, where one
   [card]-wide array per group would be O(groups × card); the flat pass
   reads rows in order, which the CSR walk's gather cannot. *)
let iter_modes t codes ~card f =
  let n = Array.length t.ids in
  if Array.length codes <> n then invalid_arg "Group.iter_modes: length mismatch";
  let size = t.n_groups * card in
  if size <= n then begin
    let cell = Stdlib.Domain.DLS.get flat_tables in
    let counts =
      if Array.length !cell < size then Array.make n 0
      else begin
        Array.fill !cell 0 size 0;
        !cell
      end
    in
    cell := [||];
    for i = 0 to n - 1 do
      let k = (t.ids.(i) * card) + codes.(i) in
      counts.(k) <- counts.(k) + 1
    done;
    for g = 0 to t.n_groups - 1 do
      let base = g * card in
      let mode = ref 0 in
      for c = 1 to card - 1 do
        if counts.(base + c) > counts.(base + !mode) then mode := c
      done;
      f g counts ~base ~mode:!mode ~count:counts.(base + !mode)
    done;
    cell := counts
  end
  else begin
    let hist = Array.make card 0 in
    for g = 0 to t.n_groups - 1 do
      let lo = t.offsets.(g) and hi = t.offsets.(g + 1) in
      let mode = ref (-1) and count = ref 0 in
      for k = lo to hi - 1 do
        let c = codes.(t.rows.(k)) in
        let h = hist.(c) + 1 in
        hist.(c) <- h;
        if h > !count || (h = !count && c < !mode) then begin
          mode := c;
          count := h
        end
      done;
      f g hist ~base:0 ~mode:!mode ~count:!count;
      for k = lo to hi - 1 do
        hist.(codes.(t.rows.(k))) <- 0
      done
    done
  end

(* ------------------------------------------------------------------ *)
(* Per-snapshot memo cache *)

(* One cache per frame snapshot: repeated groupings over the same
   column-index set — thousands of enumerated sketches sharing a GIVEN
   set, a table's validations across requests — are computed once. The
   mutex guards only the table; a missing grouping is computed outside
   it, so callers wanting other keys never queue behind it. The first
   caller of a key publishes a pending slot and computes; later callers
   of the same key wait for it. So (a) the cache is safe under
   [Runtime.Pool.parmap] and (b) each distinct key is computed exactly
   once, keeping the hit/miss counters schedule-independent. *)
module Cache = struct
  type group = t

  type slot = Ready of group | Pending

  type t = {
    codes : int array array;
    cards : int array;
    n : int;
    cap : int;
    (* [Frame.Snapshot.key] of the frame the codes came from: the only
       cache identity — there is no physical-frame keying. *)
    frame_key : int * int;
    table : (int list, slot) Hashtbl.t;
    mutex : Mutex.t;
    ready : Condition.t;  (* signalled whenever a pending slot resolves *)
  }

  (* Frames group over their *attribute* view: dict codes for categorical
     columns, learned bin codes for binned ones. For frames without
     domains this is exactly the code matrix. *)
  let of_frame ?(cap = default_cap) frame =
    {
      codes = Frame.attr_code_matrix frame;
      cards = Frame.attr_cardinalities frame;
      n = Frame.nrows frame;
      cap;
      frame_key = Frame.Snapshot.key frame;
      table = Hashtbl.create 64;
      mutex = Mutex.create ();
      ready = Condition.create ();
    }

  let frame_key c = c.frame_key

  (* Rebuild once the delta outgrows this fraction of the extended
     table: extending hashes only the delta rows but still pays an
     O(n) CSR rebuild per cached grouping, so past ~half the rows the
     incremental path has no edge over a clean rebuild. *)
  let default_rebuild_threshold = 0.5

  let snapshot_entries c =
    Mutex.lock c.mutex;
    let entries =
      Hashtbl.fold
        (fun k slot acc -> match slot with Ready g -> (k, g) :: acc | Pending -> acc)
        c.table []
    in
    Mutex.unlock c.mutex;
    entries

  (* Carry a cache forward to a later snapshot of the same lineage.
     Same key: returned unchanged. Append delta under the threshold:
     every cached grouping is extended in place of a rebuild
     (bit-identical to regrouping, counted in [group.cache.extended]).
     Anything else — different lineage, cell updates, history window
     exceeded, delta too large — falls back to a fresh empty cache for
     the new frame ([group.cache.rebuilt]). *)
  let advance ?(rebuild_threshold = default_rebuild_threshold) c frame =
    let rebuild () =
      Obs.Metric.count "group.cache.rebuilt";
      of_frame ~cap:c.cap frame
    in
    match c.frame_key with
    | id, epoch when id = Frame.Snapshot.id frame -> (
      if epoch = Frame.Snapshot.epoch frame then c
      else
        match Frame.Delta.since frame ~epoch with
        | Frame.Delta.Unchanged -> c
        | Frame.Delta.Rows_appended { base_rows }
          when float_of_int (Frame.nrows frame - base_rows)
               <= rebuild_threshold *. float_of_int (Frame.nrows frame) ->
          let next = of_frame ~cap:c.cap frame in
          List.iter
            (fun (key, g) ->
              let cols = List.map (fun i -> next.codes.(i)) key in
              Hashtbl.replace next.table key (Ready (extend g cols next.n));
              Obs.Metric.count "group.cache.extended")
            (snapshot_entries c);
          next
        | _ -> rebuild ())
    | _ -> rebuild ()

  let length c =
    Mutex.lock c.mutex;
    let l = Hashtbl.length c.table in
    Mutex.unlock c.mutex;
    l

  (* Grouping a column set is order-insensitive (dense first-occurrence
     ids only depend on the row partition), so keys are normalized to
     sorted column lists and [get cols] with any permutation shares one
     entry. *)
  let get c cols =
    let key = List.sort_uniq Int.compare cols in
    let compute () =
      Obs.Span.with_ "group.key"
        ~attrs:(fun () ->
          [ ("cols", String.concat "," (List.map string_of_int key)) ])
      @@ fun () ->
      make ~cap:c.cap
        (List.map (fun i -> c.codes.(i)) key)
        (List.map (fun i -> c.cards.(i)) key)
        c.n
    in
    let resolve slot =
      Mutex.lock c.mutex;
      (match slot with
       | Some g -> Hashtbl.replace c.table key (Ready g)
       | None -> Hashtbl.remove c.table key);
      Condition.broadcast c.ready;
      Mutex.unlock c.mutex
    in
    (* under the mutex: a ready grouping, or [None] once this caller
       owns the pending slot; a failed computation frees the slot and
       the next waiter takes it over *)
    let rec lookup counted =
      match Hashtbl.find_opt c.table key with
      | Some (Ready g) ->
        if not counted then Obs.Metric.count "group.cache.hits";
        Some g
      | Some Pending ->
        if not counted then Obs.Metric.count "group.cache.hits";
        Condition.wait c.ready c.mutex;
        lookup true
      | None ->
        if not counted then Obs.Metric.count "group.cache.misses";
        Hashtbl.replace c.table key Pending;
        None
    in
    Mutex.lock c.mutex;
    let found = lookup false in
    Mutex.unlock c.mutex;
    match found with
    | Some g -> g
    | None -> (
      match compute () with
      | g ->
        resolve (Some g);
        g
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        resolve None;
        Printexc.raise_with_backtrace e bt)
end
