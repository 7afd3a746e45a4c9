(* Typed attribute domains.

   GUARDRAIL's Alg. 1 is defined over categorical attributes; this module is
   the bridge that lets numeric and ordinal columns participate. A [binning]
   is a learned partition of the real line into contiguous bins; bin ids are
   dict-style codes, so every downstream consumer that groups or counts over
   codes (Group, Contingency, the CI oracle, the snapshot/delta machinery)
   works unchanged once a frame exposes bin codes as its attribute view.

   Atoms are the value-level tests the DSL and the VM share. They live here
   rather than in lib/core because lib/vm must not depend on lib/core. *)

(* ------------------------------------------------------------------ *)
(* Atoms *)

type atom =
  | Eq of Value.t                        (* v = l, structural on Value.t *)
  | Between of { lo : float; hi : float }  (* lo <= v <= hi, inclusive *)
  | Le of float                          (* v <= bound *)
  | Ge of float                          (* v >= bound *)

let atom_holds atom v =
  match atom with
  | Eq l -> Value.equal v l
  | Between { lo; hi } ->
    (match Value.to_float v with None -> false | Some x -> lo <= x && x <= hi)
  | Le b -> (match Value.to_float v with None -> false | Some x -> x <= b)
  | Ge b -> (match Value.to_float v with None -> false | Some x -> x >= b)

let equal_atom a b =
  match a, b with
  | Eq x, Eq y -> Value.equal x y
  | Between x, Between y -> Float.equal x.lo y.lo && Float.equal x.hi y.hi
  | Le x, Le y | Ge x, Ge y -> Float.equal x y
  | (Eq _ | Between _ | Le _ | Ge _), _ -> false

let compare_atom a b =
  let rank = function Eq _ -> 0 | Between _ -> 1 | Le _ -> 2 | Ge _ -> 3 in
  match a, b with
  | Eq x, Eq y -> Value.compare x y
  | Between x, Between y ->
    let c = Float.compare x.lo y.lo in
    if c <> 0 then c else Float.compare x.hi y.hi
  | Le x, Le y | Ge x, Ge y -> Float.compare x y
  | (Eq _ | Between _ | Le _ | Ge _), _ -> Int.compare (rank a) (rank b)

(* Float image of a value for rectification: integral floats come back as
   Int so repaired cells look like their neighbours in integer columns. *)
let value_of_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Value.Int (int_of_float f)
  else Value.Float f

(* Closest in-range value: the repair target for [Rectify] under a range
   expectation. Non-numeric actuals clamp to the lower end (deterministic). *)
let rectify atom actual =
  if atom_holds atom actual then actual
  else
    match atom with
    | Eq l -> l
    | Between { lo; hi } ->
      (match Value.to_float actual with
       | Some x when x > hi -> value_of_float hi
       | Some _ | None -> value_of_float lo)
    | Le b -> value_of_float b
    | Ge b -> value_of_float b

let pp_atom ppf = function
  | Eq l -> Fmt.pf ppf "= %a" Value.pp l
  | Between { lo; hi } -> Fmt.pf ppf "in [%g, %g]" lo hi
  | Le b -> Fmt.pf ppf "<= %g" b
  | Ge b -> Fmt.pf ppf ">= %g" b

(* ------------------------------------------------------------------ *)
(* Binnings *)

type method_ =
  | Equi_width  (* equal-width intervals over [min, max] *)
  | Equi_depth  (* quantile boundaries: roughly equal row mass per bin *)
  | Distinct    (* one bin per distinct value (ordinal columns) *)

let equal_method a b =
  match a, b with
  | Equi_width, Equi_width | Equi_depth, Equi_depth | Distinct, Distinct -> true
  | (Equi_width | Equi_depth | Distinct), _ -> false

let pp_method ppf = function
  | Equi_width -> Fmt.string ppf "equi-width"
  | Equi_depth -> Fmt.string ppf "equi-depth"
  | Distinct -> Fmt.string ppf "distinct"

type binning = {
  method_ : method_;
  target : int;          (* requested bin count; re-learning re-uses it *)
  edges : float array;   (* strictly ascending, [n_bins + 1] entries *)
  version : int;         (* bumped every re-learn past the drift threshold *)
}

let n_bins b = Array.length b.edges - 1

let equal_binning a b =
  equal_method a.method_ b.method_
  && a.target = b.target && a.version = b.version
  && Array.length a.edges = Array.length b.edges
  && (let eq = ref true in
      Array.iteri (fun i e -> if not (Float.equal e b.edges.(i)) then eq := false) a.edges;
      !eq)

(* Bin of a float under clipping semantics: values past either end land in
   the edge bins, so appended out-of-range rows still get a code without
   re-learning. Bin [b] covers [edges.(b), edges.(b+1)) except the last,
   which is closed above. Monotone in [x] by construction. *)
let assign b x =
  let n = n_bins b in
  if not (x > b.edges.(0)) then 0          (* also catches NaN -> bin 0 *)
  else if x >= b.edges.(n) then n - 1
  else begin
    (* largest [i] with [edges.(i) <= x] *)
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if b.edges.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let in_range b x = b.edges.(0) <= x && x <= b.edges.(n_bins b)

(* The value-level test matching [assign]'s clipping: edge bins are
   open-ended, interior bins use a predecessor-float upper bound so that
   atoms of adjacent bins stay disjoint (the VM ruleset probe needs
   non-overlapping intervals per key position). *)
let bin_atom b i =
  let n = n_bins b in
  if i < 0 || i >= n then invalid_arg "Domain.bin_atom: bin out of range";
  if n = 1 then Ge Float.neg_infinity
  else if i = 0 then Le (Float.pred b.edges.(1))
  else if i = n - 1 then Ge b.edges.(n - 1)
  else Between { lo = b.edges.(i); hi = Float.pred b.edges.(i + 1) }

(* Test for a contiguous run of bins [lo..hi]: the HAVING-clause form. The
   upper boundary is kept inclusive at the shared edge — assignments are
   standalone tests, not probe keys, so closure at the boundary is fine and
   prints as clean SQL-style [BETWEEN lo AND hi]. *)
let window_atom b ~lo ~hi =
  let n = n_bins b in
  if lo < 0 || hi >= n || lo > hi then invalid_arg "Domain.window_atom";
  if lo = 0 && hi = n - 1 then Ge Float.neg_infinity
  else if lo = 0 then Le b.edges.(hi + 1)
  else if hi = n - 1 then Ge b.edges.(lo)
  else Between { lo = b.edges.(lo); hi = b.edges.(hi + 1) }

(* ------------------------------------------------------------------ *)
(* Learning *)

let dedup_ascending edges =
  let out = ref [ edges.(0) ] in
  Array.iter (fun e -> if e > List.hd !out then out := e :: !out) edges;
  Array.of_list (List.rev !out)

let finite_sorted values =
  let xs = Array.of_list (List.filter Float.is_finite (Array.to_list values)) in
  Array.sort Float.compare xs;
  xs

let rec learn_edges method_ ~bins xs =
  (* [xs] sorted ascending, finite, non-empty *)
  let n = Array.length xs in
  let lo = xs.(0) and hi = xs.(n - 1) in
  if lo = hi then [| lo; hi |]
  else
    match method_ with
    | Equi_width ->
      let edges =
        Array.init (bins + 1) (fun i ->
            if i = 0 then lo
            else if i = bins then hi
            else lo +. ((hi -. lo) *. float_of_int i /. float_of_int bins))
      in
      dedup_ascending edges
    | Equi_depth ->
      (* boundary [i] sits at the value starting the i-th equal-mass slice;
         ties collapse via dedup, merging bins rather than unbalancing them *)
      let edges =
        Array.init (bins + 1) (fun i ->
            if i = 0 then lo
            else if i = bins then hi
            else xs.(i * n / bins))
      in
      dedup_ascending edges
    | Distinct ->
      let distinct = dedup_ascending xs in
      let k = Array.length distinct in
      if k > bins then learn_edges Equi_depth ~bins xs
      else Array.append distinct [| distinct.(k - 1) |]

let learn method_ ~bins values =
  if bins < 1 then invalid_arg "Domain.learn: bins must be >= 1";
  let xs = finite_sorted values in
  if Array.length xs = 0 then None
  else
    let edges = learn_edges method_ ~bins xs in
    let edges = if Array.length edges < 2 then [| xs.(0); xs.(0) |] else edges in
    Some { method_; target = bins; edges; version = 0 }

(* Re-learn over fresh data, keeping the recipe and bumping the version so
   snapshot consumers can tell the codes were re-based. Falls back to the
   old edges when the new data has no finite values. *)
let relearn b values =
  match learn b.method_ ~bins:b.target values with
  | Some b' -> { b' with version = b.version + 1 }
  | None -> { b with version = b.version + 1 }

let pp_binning ppf b =
  Fmt.pf ppf "%a[%d bins v%d: %g..%g]" pp_method b.method_ (n_bins b) b.version
    b.edges.(0) b.edges.(n_bins b)

(* ------------------------------------------------------------------ *)
(* Domains *)

type t =
  | Categorical
  | Ordinal of binning
  | Numeric of binning

let binning = function Categorical -> None | Ordinal b | Numeric b -> Some b

let equal a b =
  match a, b with
  | Categorical, Categorical -> true
  | Ordinal x, Ordinal y | Numeric x, Numeric y -> equal_binning x y
  | (Categorical | Ordinal _ | Numeric _), _ -> false

let pp ppf = function
  | Categorical -> Fmt.string ppf "categorical"
  | Ordinal b -> Fmt.pf ppf "ordinal %a" pp_binning b
  | Numeric b -> Fmt.pf ppf "numeric %a" pp_binning b
