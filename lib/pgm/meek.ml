(* Meek's orientation rules (Meek 1995).

   Given a PDAG whose v-structures are already oriented, repeatedly apply
   R1-R4 until fixpoint. The result is the maximally oriented graph — for
   PC output, the CPDAG of the Markov equivalence class.

     R1: a -> b, b - c, a and c non-adjacent        =>  b -> c
     R2: a -> b -> c, a - c                         =>  a -> c
     R3: a - b, a - c, a - d, c -> b, d -> b,
         c and d non-adjacent                       =>  a -> b
     R4: a - b, a - c, c -> d, d -> b,
         b and d adjacent or a and d adjacent (we
         use the standard form: a - d, c -> d,
         d -> b, a - b, a - c, b and c non-adjacent) => a -> b

   The rules run on the graph's bit-set rows. Each visits nodes and
   neighbours in ascending order and takes the neighbour set it iterates
   over when it reaches a node, as a list-based version would; every
   other test reads the live rows. Orienting never changes adjacency, so
   an adjacency row read once stays valid for a whole closure. *)

open Pdag

(* word [k] of node [x]'s adjacency row *)
let[@inline] adj g x k =
  let i = (x * g.words) + k in
  g.children.(i) lor g.parents.(i) lor g.undirected.(i)

(* is row [x] of [rows] empty? *)
let rec empty w rows x k = k >= w || (rows.((x * w) + k) = 0 && empty w rows x (k + 1))

(* do rows [i] of [xs] and [j] of [ys] share a node, from word [k] on? *)
let rec intersects w xs i ys j k =
  k < w && (xs.((i * w) + k) land ys.((j * w) + k) <> 0 || intersects w xs i ys j (k + 1))

(* R3's test, from word [k] on: has a's undirected neighbour [c] with
   c -> b another such neighbour it is not adjacent to? *)
let rec r3_spouse g a b c k =
  let w = g.words in
  k < w
  && (g.undirected.((a * w) + k) land g.parents.((b * w) + k)
      land lnot (adj g c k) land lnot (mask c k)
      <> 0
     || r3_spouse g a b c (k + 1))

(* R4's test, from word [k] on: has [d] a parent [c] adjacent to [a]
   and not to [b]? *)
let rec r4_parent g a b d k =
  let w = g.words in
  k < w
  && (g.parents.((d * w) + k) land adj g a k land lnot (adj g b k) <> 0
     || r4_parent g a b d (k + 1))

let rule1 g =
  let w = g.words in
  let changed = ref false in
  (* b's parents as they were on reaching b: orienting b - c drops c
     from them if c -> b was also set *)
  let ps = Array.make w 0 in
  for b = 0 to g.n - 1 do
    (* nothing to orient without an undirected neighbour; orienting
       never adds one *)
    if not (empty w g.undirected b 0) then begin
      Array.blit g.parents (b * w) ps 0 w;
      for kp = 0 to w - 1 do
        let m = ref ps.(kp) in
        while !m <> 0 do
          let a = node kp !m in
          m := !m land (!m - 1);
          (* a -> b: orient b - c for every c not adjacent to a.
             Orienting b - c changes no other bit of b's undirected row
             and no adjacency, so each word's targets can be taken at
             once. *)
          for k = 0 to w - 1 do
            let targets =
              g.undirected.((b * w) + k) land lnot (adj g a k) land lnot (mask a k)
            in
            if targets <> 0 then begin
              let t = ref targets in
              while !t <> 0 do
                orient g b (node k !t);
                t := !t land (!t - 1)
              done;
              changed := true
            end
          done
        done
      done
    end
  done;
  !changed

(* [rule2] to [rule4]: for each undirected a - b, in ascending a then b,
   orient a -> b when [fires]. Orienting a -> b drops only b from a's
   undirected row, so reading the row a word at a time visits the row
   as it was on reaching a. *)
let orient_undirected g fires =
  let w = g.words in
  let changed = ref false in
  for a = 0 to g.n - 1 do
    for k = 0 to w - 1 do
      let m = ref g.undirected.((a * w) + k) in
      while !m <> 0 do
        let b = node k !m in
        m := !m land (!m - 1);
        if fires g a b then begin
          orient g a b;
          changed := true
        end
      done
    done
  done;
  !changed

(* a - b with a -> c -> b *)
let r2 g a b = intersects g.words g.children a g.parents b 0

(* a - b with a - c, a - d, c -> b, d -> b, c and d non-adjacent *)
let r3 g a b =
  let w = g.words in
  let found = ref false in
  for k = 0 to w - 1 do
    let m = ref (g.undirected.((a * w) + k) land g.parents.((b * w) + k)) in
    while (not !found) && !m <> 0 do
      let c = node k !m in
      m := !m land (!m - 1);
      found := r3_spouse g a b c 0
    done
  done;
  !found

(* a - b with d -> b, a adjacent to d, c -> d, a adjacent to c and b
   non-adjacent to c *)
let r4 g a b =
  let w = g.words in
  let found = ref false in
  for k = 0 to w - 1 do
    let m = ref (g.parents.((b * w) + k) land adj g a k) in
    while (not !found) && !m <> 0 do
      let d = node k !m in
      m := !m land (!m - 1);
      found := r4_parent g a b d 0
    done
  done;
  !found

let rule2 g = orient_undirected g r2
let rule3 g = orient_undirected g r3
let rule4 g = orient_undirected g r4

(* Apply R1-R4 until no rule fires. Mutates [g]. *)
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
