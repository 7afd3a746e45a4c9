(* The circular-shift sampler with one int per indicator: sample
   (s - 1) * n + i is 1 iff rows i and (i + s) mod n agree on the
   attribute's code — what the bit-packed [Guardrail.Auxdist.circular_shift]
   must unpack to. *)

module Frame = Dataframe.Frame

let circular_shift ~max_shifts ~max_samples frame cols =
  let n = Frame.nrows frame in
  if n < 2 then invalid_arg "Oracle.Auxdist.circular_shift: need at least 2 rows";
  let m = List.length cols in
  let code_arrays =
    Array.of_list (List.map (fun c -> Frame.attr_codes frame c) cols)
  in
  let shifts = min max_shifts (n - 1) in
  let total = min (shifts * n) max_samples in
  let columns = Array.init m (fun _ -> Array.make total 0) in
  let out = ref 0 in
  let s = ref 1 in
  while !out < total && !s <= shifts do
    let i = ref 0 in
    while !out < total && !i < n do
      let j = (!i + !s) mod n in
      for k = 0 to m - 1 do
        columns.(k).(!out) <-
          (if code_arrays.(k).(!i) = code_arrays.(k).(j) then 1 else 0)
      done;
      incr out;
      incr i
    done;
    incr s
  done;
  columns
