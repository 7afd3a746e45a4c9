(* The one group-by kernel.

   Every hot loop of the synthesis pipeline — conditional-independence
   strata, the HAVING fill's per-GIVEN modes, TANE's stripped
   partitions, BIC family counts, feature-vector dedup — reduces to the
   same primitive: group rows by a tuple of dictionary codes and count.
   This module is that primitive, computed once and shared.

   One pass over the rows assigns dense group ids in order of first
   occurrence, recording each group's size and first row as its id is
   minted. Key encoding picks between two paths with *identical* ids:

   - mixed radix: when the product of the column cardinalities fits under
     a cap, each row's composite key is the radix combination of its
     codes, looked up in a flat remap array (no hashing at all);
   - hashed: otherwise, a hashtable over the per-row code tuples.

   The CSR row index (row indices sorted by group, under the offsets)
   is built on demand, by the first caller that walks a group's rows:
   the HAVING fill's flat [iter_modes] layout and every caller that only
   reads ids and sizes never pay for it. It is published once through
   an [Atomic]; domains that race build equal arrays and all of them
   return the one that won. *)

type t = {
  ids : int array;      (* row -> dense group id, first-occurrence order *)
  n_groups : int;
  offsets : int array;  (* length n_groups + 1 *)
  firsts : int array;   (* group -> its first row *)
  rows : int array option Atomic.t;
      (* row indices, grouped; ascending within a group; built on demand *)
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

(* The first [len] ints of [a]: [a] itself when that is all of it. *)
let prefix (a : int array) len =
  if len = Array.length a then a else Column.sub_codes a 0 len

(* A grouping from the pass's outputs: [sizes.(g + 1)] holds group [g]'s
   size and becomes the offsets, in place; both arrays may have spare
   slots past the [n_groups] minted. *)
let finish ids n_groups sizes firsts =
  for g = 0 to n_groups - 1 do
    sizes.(g + 1) <- sizes.(g + 1) + sizes.(g)
  done;
  {
    ids;
    n_groups;
    offsets = prefix sizes (n_groups + 1);
    firsts = prefix firsts n_groups;
    rows = Atomic.make None;
  }

(* Rows [lo, hi) through a hashtable over their code tuples, minting
   ids from [next]; returns the next free id. *)
let hashed_pass arrs tbl ids sizes firsts next lo hi =
  let d = Array.length arrs in
  let next = ref next in
  for i = lo to hi - 1 do
    let key = Array.init d (fun j -> arrs.(j).(i)) in
    let g =
      match Hashtbl.find_opt tbl key with
      | Some g -> g
      | None ->
        let g = !next in
        Hashtbl.add tbl key g;
        firsts.(g) <- i;
        incr next;
        g
    in
    ids.(i) <- g;
    sizes.(g + 1) <- sizes.(g + 1) + 1
  done;
  !next

let default_cap = 65_536

let make ?(cap = default_cap) codes cards n =
  if List.length codes <> List.length cards then
    invalid_arg "Group.make: codes/cards mismatch";
  List.iter
    (fun cs ->
      if Array.length cs <> n then invalid_arg "Group.make: length mismatch")
    codes;
  Obs.Metric.count ~by:n "group.rows";
  let arrs = Array.of_list codes in
  let ids = Array.make n 0 in
  match strata_count ~cap cards with
  | Some space ->
    let cards = Array.of_list cards and d = Array.length arrs in
    let bound = min space n in
    let sizes = Array.make (bound + 1) 0 and firsts = Array.make bound 0 in
    let remap = Array.make (if n = 0 then 0 else space) (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      let key = ref 0 in
      for j = 0 to d - 1 do
        key := (!key * Array.unsafe_get cards j) + (Array.unsafe_get arrs j).(i)
      done;
      let g = remap.(!key) in
      let g =
        if g >= 0 then g
        else begin
          let g = !next in
          remap.(!key) <- g;
          firsts.(g) <- i;
          incr next;
          g
        end
      in
      Array.unsafe_set ids i g;
      sizes.(g + 1) <- sizes.(g + 1) + 1
    done;
    finish ids !next sizes firsts
  | None ->
    let sizes = Array.make (n + 1) 0 and firsts = Array.make n 0 in
    let tbl : (int array, int) Hashtbl.t = Hashtbl.create 256 in
    finish ids (hashed_pass arrs tbl ids sizes firsts 0 0 n) sizes firsts

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
  Obs.Metric.count ~by:(n - base) "group.rows";
  let arrs = Array.of_list codes in
  let d = Array.length arrs in
  let tbl : (int array, int) Hashtbl.t = Hashtbl.create (2 * (g.n_groups + 8)) in
  let bound = g.n_groups + (n - base) in
  let ids = Array.make n 0 in
  let sizes = Array.make (bound + 1) 0 and firsts = Array.make bound 0 in
  for i = 0 to base - 1 do
    ids.(i) <- g.ids.(i)
  done;
  for gid = 0 to g.n_groups - 1 do
    let first = g.firsts.(gid) in
    Hashtbl.replace tbl (Array.init d (fun j -> arrs.(j).(first))) gid;
    firsts.(gid) <- first;
    sizes.(gid + 1) <- g.offsets.(gid + 1) - g.offsets.(gid)
  done;
  finish ids (hashed_pass arrs tbl ids sizes firsts g.n_groups base n) sizes firsts

let of_codes n codes =
  let codes =
    if Array.length codes = n then codes else prefix codes n
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
let size t g = t.offsets.(g + 1) - t.offsets.(g)
let counts t = Array.init t.n_groups (size t)
let first_row t g = t.firsts.(g)

(* The CSR index: each row placed at its group's cursor, in row order,
   so rows ascend within a group. *)
let build_rows t =
  let n = Array.length t.ids in
  let cursor = Column.sub_codes t.offsets 0 t.n_groups in
  let rows = Array.make n 0 in
  for i = 0 to n - 1 do
    let g = Array.unsafe_get t.ids i in
    rows.(cursor.(g)) <- i;
    cursor.(g) <- cursor.(g) + 1
  done;
  rows

(* Built by the first reader; [group.index.built] counts only the
   publish that wins, so it does not depend on scheduling. *)
let row_index t =
  match Atomic.get t.rows with
  | Some rows -> rows
  | None ->
    let rows = build_rows t in
    if Atomic.compare_and_set t.rows None (Some rows) then begin
      Obs.Metric.count "group.index.built";
      rows
    end
    else Option.get (Atomic.get t.rows)

let rows_of t g = Column.sub_codes (row_index t) t.offsets.(g) (size t g)

let iter_rows t g f =
  let rows = row_index t in
  for k = t.offsets.(g) to t.offsets.(g + 1) - 1 do
    f rows.(k)
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
    let rows = row_index t in
    let hist = Array.make card 0 in
    for g = 0 to t.n_groups - 1 do
      let lo = t.offsets.(g) and hi = t.offsets.(g + 1) in
      let mode = ref (-1) and count = ref 0 in
      for k = lo to hi - 1 do
        let c = codes.(rows.(k)) in
        let h = hist.(c) + 1 in
        hist.(c) <- h;
        if h > !count || (h = !count && c < !mode) then begin
          mode := c;
          count := h
        end
      done;
      f g hist ~base:0 ~mode:!mode ~count:!count;
      for k = lo to hi - 1 do
        hist.(codes.(rows.(k))) <- 0
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
     table: extending hashes only the delta rows but still copies the
     O(n) ids per cached grouping, so past ~half the rows the
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
