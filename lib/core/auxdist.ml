(* The auxiliary distribution of Def. 4.5 and its circular-shift sampler.

   For two rows t1, t2 ~ P_D, the binary vector I has I_k = 1 iff
   t1(a_k) = t2(a_k). Proposition 5 (paper appendix) shows P_I has the
   same conditional-independence structure as P_D, so the PGM can be
   learned over I instead — the binary recast sidesteps the
   high-cardinality sparsity that starves contingency-table CI tests.

   Sampling all O(n²) row pairs is wasteful; the paper adopts FDX's
   circular-shift trick: for shift s, pair row i with row (i + s) mod n,
   giving n near-independent pairs per shift.

   The indicators are stored bit-packed ({!Stat.Bits}), each with its
   popcount, so every CI test over them is a run of word ANDs and
   popcounts ({!Stat.Bits.conditional}). *)

module Frame = Dataframe.Frame

(* per attribute: a bit-packed 0/1 column, or the dictionary codes *)
type data = Indicators of Stat.Bits.column array | Codes of int array array

type samples = { data : data; cards : int list; n_samples : int }

(* The agreement bits of rows [base, base + m) against rows [base + d,
   base + m + d), as bits [0, m) of an int. A leaf with every value in
   a register: the rows are walked downwards, so each bit shifts in at
   the bottom. *)
let agreements (codes : int array) base d m =
  let bits = ref 0 in
  for i = base + m - 1 downto base do
    bits :=
      (!bits lsl 1)
      lor Bool.to_int (Array.unsafe_get codes i = Array.unsafe_get codes (i + d))
  done;
  !bits

(* Fills [ws] with one attribute's indicator words: sample
   (s - 1) * n + i is 1 iff rows i and (i + s) mod n agree, for
   s = 1, 2, ... until [total] samples. Each shift is two straight runs,
   rows [0, n - s) against row i + s and then, past the wrap, rows
   [n - s, n) against row i + s - n. A run is cut at word ends, so there
   is no per-sample call and no branch on the sample or the wrap. *)
let indicators ~n ~total (codes, ws) =
  let width = Stat.Bits.width in
  (* [w * width + bit] samples written; the partial word is [word] *)
  let word = ref 0 and bit = ref 0 and w = ref 0 and left = ref total in
  let s = ref 1 in
  while !left > 0 do
    for wrapped = 0 to 1 do
      let lo = if wrapped = 0 then 0 else n - !s in
      let d = if wrapped = 0 then !s else !s - n in
      let hi = Int.min (if wrapped = 0 then n - !s else n) (lo + !left) in
      left := !left - (hi - lo);
      let i = ref lo in
      while !i < hi do
        let m = Int.min (hi - !i) (width - !bit) in
        word := !word lor (agreements codes !i d m lsl !bit);
        i := !i + m;
        bit := !bit + m;
        if !bit = width then begin
          ws.(!w) <- !word;
          incr w;
          word := 0;
          bit := 0
        end
      done
    done;
    incr s
  done;
  if !bit > 0 then ws.(!w) <- !word

(* Binary samples over the given columns of a frame, one attribute per
   task on [pool]. The words are allocated here, on the caller's domain,
   and the tasks only fill them and count their ones: words allocated on
   a worker measurably raised the sweep's peak RSS. *)
let circular_shift ?pool ~max_shifts ~max_samples frame cols =
  let n = Frame.nrows frame in
  if n < 2 then invalid_arg "Auxdist.circular_shift: need at least 2 rows";
  let total = min (min max_shifts (n - 1) * n) max_samples in
  (* attribute codes: two rows "agree" on a binned column when they fall
     in the same bin, which is what makes binned marginals informative
     to the CI oracle *)
  let tasks =
    List.map
      (fun c -> (Frame.attr_codes frame c, Array.make (Stat.Bits.words total) 0))
      cols
  in
  let columns =
    Runtime.Pool.parmap ?pool ~chunk:1
      (fun ((_, ws) as task) ->
        indicators ~n ~total task;
        Stat.Bits.column ws)
      tasks
  in
  {
    data = Indicators (Array.of_list columns);
    cards = List.map (fun _ -> 2) cols;
    n_samples = total;
  }

(* The identity "sampler": raw dictionary codes, used by the Table 8
   ablation. High-cardinality attributes make the downstream CI tests
   underpowered, which is the failure the auxiliary distribution fixes. *)
let identity frame cols =
  let columns =
    Array.of_list
      (List.map (fun c -> Array.copy (Frame.attr_codes frame c)) cols)
  in
  let cards = List.map (fun c -> Frame.attr_card frame c) cols in
  { data = Codes columns; cards; n_samples = Frame.nrows frame }

let columns samples =
  match samples.data with
  | Indicators bits ->
    Array.map (fun c -> Stat.Bits.unpack samples.n_samples c.Stat.Bits.words) bits
  | Codes columns -> columns

(* CI oracle over sampled columns for the PC algorithm: is variable i
   independent of variable j given the variables in [cond]?

   Memoized: stable-PC builds each edge's candidate conditioning sets
   from both endpoints' adjacency snapshots, so a set S contained in
   both adj(i) and adj(j) is tested twice per level — and the Pc
   round-barrier schedule may revisit (i, j, S) across levels. The
   oracle is pure, so caching changes nothing observable except the
   work done; hit/miss counts land in [Obs.Metric.default]. *)
let ci_oracle ~alpha ~max_strata ~min_effect samples =
  let cards = Array.of_list samples.cards in
  (* one validated spec; the tests below are pure and safe to call from
     several domains at once (parallel PC skeleton) *)
  let spec = Stat.Ci.make ~max_strata ~min_effect ~alpha ~kx:2 ~ky:2 () in
  let test =
    match samples.data with
    | Indicators bits ->
      fun i j cond ->
        Stat.Ci.evaluate spec
          (Stat.Bits.conditional ~max_strata
             ~n:samples.n_samples bits.(i) bits.(j)
             (List.map (fun k -> bits.(k)) cond))
    | Codes columns ->
      fun i j cond ->
        Stat.Ci.test
          { spec with Stat.Ci.kx = cards.(i); ky = cards.(j) }
          columns.(i) columns.(j)
          (List.map (fun k -> columns.(k)) cond)
          (List.map (fun k -> cards.(k)) cond)
  in
  let memo : (int * int * int list, bool) Hashtbl.t = Hashtbl.create 256 in
  let memo_mutex = Mutex.create () in
  let hits = Obs.Metric.counter Obs.Metric.default "ci.cache.hits" in
  let misses = Obs.Metric.counter Obs.Metric.default "ci.cache.misses" in
  fun i j cond ->
    (* (i, j) and (j, i) are the same question; normalize the key. *)
    let key = (min i j, max i j, List.sort_uniq compare cond) in
    let cached =
      Mutex.lock memo_mutex;
      let c = Hashtbl.find_opt memo key in
      Mutex.unlock memo_mutex;
      c
    in
    match cached with
    | Some independent ->
      Obs.Metric.incr hits;
      independent
    | None ->
      Obs.Metric.incr misses;
      let independent = (test i j cond).Stat.Ci.independent in
      Mutex.lock memo_mutex;
      Hashtbl.replace memo key independent;
      Mutex.unlock memo_mutex;
      independent
