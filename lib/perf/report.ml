let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                      "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                      "\xe2\x96\x87"; "\xe2\x96\x88" |]

(* ▁▂▃▄▅▆▇█ over the last [width] values, min-max scaled per metric *)
let sparkline ?(width = 12) values =
  let n = List.length values in
  let values = if n > width then List.filteri (fun i _ -> i >= n - width) values
               else values in
  match values with
  | [] -> ""
  | vs ->
    let lo = List.fold_left Float.min Float.infinity vs in
    let hi = List.fold_left Float.max Float.neg_infinity vs in
    let scale v =
      if hi -. lo <= 0.0 then 3
      else
        min 7 (int_of_float (7.9 *. (v -. lo) /. (hi -. lo)))
    in
    String.concat "" (List.map (fun v -> spark_levels.(max 0 (scale v))) vs)

let fmt v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let utc_date t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let markdown runs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "## Benchmark trajectory\n\n";
  (match runs with
   | [] ->
     Buffer.add_string b
       "_No recorded runs yet. `bench record` appends one line per run to \
        the history file._\n"
   | runs ->
     let current = List.nth runs (List.length runs - 1) in
     let baseline =
       if List.length runs >= 2 then Some (List.nth runs (List.length runs - 2))
       else None
     in
     Buffer.add_string b
       (Printf.sprintf
          "%d run(s); current: rev `%s` (%s)%s\n\n"
          (List.length runs) current.Result.rev
          (utc_date current.Result.unix_time)
          (match baseline with
           | Some p -> Printf.sprintf "; baseline: rev `%s`" p.Result.rev
           | None -> ""));
     Buffer.add_string b
       "| metric | unit | best | baseline | current | delta | trend |\n\
        |---|---|---:|---:|---:|---:|---|\n";
     let lookup run key =
       List.find_opt (fun m -> Result.key m = key) run.Result.results
     in
     List.iter
       (fun (m : Result.metric) ->
         let key = Result.key m in
         let series =
           List.filter_map
             (fun r -> Option.map (fun m -> m.Result.value) (lookup r key))
             runs
         in
         let best =
           match m.Result.direction with
           | Result.Higher_better ->
             List.fold_left Float.max Float.neg_infinity series
           | Result.Lower_better ->
             List.fold_left Float.min Float.infinity series
         in
         let base = Option.bind baseline (fun r -> lookup r key) in
         let delta =
           match base with
           | None -> "-"
           | Some bm ->
             let d =
               if Float.abs bm.Result.value > 0.0 then
                 (m.Result.value -. bm.Result.value)
                 /. Float.abs bm.Result.value
               else 0.0
             in
             Printf.sprintf "%+.1f%%" (100.0 *. d)
         in
         Buffer.add_string b
           (Printf.sprintf "| %s%s | %s | %s | %s | %s | %s | %s |\n"
              (if m.Result.gated then "**" ^ key ^ "**" else key)
              (if m.Result.gated then " (gated)" else "")
              m.Result.unit_ (fmt best)
              (match base with
               | Some bm -> fmt bm.Result.value
               | None -> "-")
              (fmt m.Result.value) delta (sparkline series)))
       current.Result.results);
  Buffer.contents b
