(* Bit-packed 0/1 columns: sample [i] is bit [i mod width] of word
   [i / width], and bits past the last sample are zero.

   62 bits to a word keep every word a non-negative OCaml int (the
   63-bit int's sign bit stays clear), so logical shifts, the SWAR
   popcount below and [lnot]-then-mask need no sign handling. *)

let width = 62

let words n = (n + width - 1) / width

let init n f =
  let ws = Array.make (words n) 0 in
  for w = 0 to Array.length ws - 1 do
    let base = w * width in
    let word = ref 0 in
    for b = 0 to (if n - base < width then n - base else width) - 1 do
      (* no branch on the sample: agreement bits are data-dependent *)
      word := !word lor (Bool.to_int (f (base + b)) lsl b)
    done;
    ws.(w) <- !word
  done;
  ws

let unpack n ws = Array.init n (fun i -> (ws.(i / width) lsr (i mod width)) land 1)

(* Valid-sample mask of word [w] of an [n]-sample column: all 62 bits
   ([max_int]) except in a partial last word. *)
let mask n w =
  let bits = n - (w * width) in
  if bits >= width then max_int else (1 lsl bits) - 1

(* SWAR popcount of a non-negative 62-bit word; the masks are the usual
   64-bit ones cut to the 63-bit int. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Index of the lowest set bit of a non-zero word. *)
let[@inline] lowest_bit x = popcount ((x land (-x)) - 1)

(* [Contingency.conditional ~kx:2 ~ky:2] over [n] packed samples, every
   conditioning column binary: same caps, same tables, same order.

   Each word splits into the strata it touches, one AND per conditioning
   column and side, dropping empty masks (so a word visits at most
   min(2^k, 62) strata for k conditioning columns). Four popcounts per
   stratum and word give its size and its x = 1, y = 1 and x = y = 1
   counts. Words are visited in order, so a stratum first occurs at the
   lowest set bit of the first word where its mask is non-zero. *)
let conditional ~max_strata ~n xs ys zs =
  match Dataframe.Group.strata_count ~cap:max_strata (List.map (fun _ -> 2) zs) with
  | None -> None
  | Some space ->
    let zs = Array.of_list zs in
    let k = Array.length zs in
    (* stratum s: size, x = 1, y = 1, x = y = 1 at cells.(4s) .. (4s + 3) *)
    let cells = Array.make (4 * space) 0 in
    let first = Array.make space max_int in
    let count w s m =
      let mx = m land xs.(w) and y = ys.(w) in
      let c = 4 * s in
      cells.(c) <- cells.(c) + popcount m;
      cells.(c + 1) <- cells.(c + 1) + popcount mx;
      cells.(c + 2) <- cells.(c + 2) + popcount (m land y);
      cells.(c + 3) <- cells.(c + 3) + popcount (mx land y);
      if first.(s) = max_int then
        first.(s) <- (w * width) + lowest_bit m
    in
    (* stratum ids are radix 2, one digit per conditioning column:
       s = fold (s * 2 + z) *)
    let rec split w s m d =
      if d = k then count w s m
      else begin
        let z = zs.(d).(w) in
        let m0 = m land lnot z and m1 = m land z in
        if m0 <> 0 then split w (2 * s) m0 (d + 1);
        if m1 <> 0 then split w ((2 * s) + 1) m1 (d + 1)
      end
    in
    for w = 0 to words n - 1 do
      split w 0 (mask n w) 0
    done;
    let strata =
      List.init space Fun.id
      |> List.filter (fun s -> cells.(4 * s) > 0)
      |> List.sort (fun a b -> Int.compare first.(a) first.(b))
    in
    if List.length strata * 4 > Contingency.max_cells then None
    else
      Some
        (List.map
           (fun s ->
             let c = 4 * s in
             let t = cells.(c) and x = cells.(c + 1) and y = cells.(c + 2)
             and xy = cells.(c + 3) in
             {
               Contingency.counts = [| [| t - x - y + xy; y - xy |]; [| x - xy; xy |] |];
               kx = 2;
               ky = 2;
               total = t;
             })
           strata)
