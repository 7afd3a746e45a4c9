type verdict = Same | Changed | Missing | Added

type row = {
  key : string;
  unit_ : string;
  gated : bool;
  baseline : float option;
  current : float option;
  delta : float option;
  verdict : verdict;
}

(* Signed relative change of the current value. A zero baseline only
   compares equal-to-zero; any other current value counts as an
   infinite move. *)
let relative_delta ~baseline ~current =
  if Float.abs baseline > 0.0 then (current -. baseline) /. Float.abs baseline
  else if current = baseline then 0.0
  else if current > baseline then Float.infinity
  else Float.neg_infinity

let judge ~baseline (m : Result.metric) =
  match baseline with
  | None -> (None, Added)
  | Some b ->
    ( Some (relative_delta ~baseline:b ~current:m.Result.value),
      if Float.equal b m.Result.value then Same else Changed )

let compare_runs ~baseline ~current =
  let base_tbl = Hashtbl.create 64 in
  Option.iter
    (fun b ->
      List.iter
        (fun m -> Hashtbl.replace base_tbl (Result.key m) m)
        b.Result.results)
    baseline;
  let rows =
    List.map
      (fun (m : Result.metric) ->
        let key = Result.key m in
        let base = Hashtbl.find_opt base_tbl key in
        Hashtbl.remove base_tbl key;
        let delta, verdict =
          judge ~baseline:(Option.map (fun b -> b.Result.value) base) m
        in
        {
          key;
          unit_ = m.Result.unit_;
          gated = m.Result.gated;
          baseline = Option.map (fun b -> b.Result.value) base;
          current = Some m.Result.value;
          delta;
          verdict;
        })
      current.Result.results
  in
  (* metrics the baseline had but the current run lost: a silently
     dropped gated benchmark must fail, not vanish *)
  let missing =
    Hashtbl.fold
      (fun key (m : Result.metric) acc ->
        {
          key;
          unit_ = m.Result.unit_;
          gated = m.Result.gated;
          baseline = Some m.Result.value;
          current = None;
          delta = None;
          verdict = Missing;
        }
        :: acc)
      base_tbl []
  in
  rows @ List.sort (fun a b -> String.compare a.key b.key) missing

let failures rows =
  List.filter
    (fun r ->
      r.gated
      && match r.verdict with
         | Changed | Missing -> true
         | Same | Added -> false)
    rows

let verdict_label r =
  match r.verdict with
  | (Same | Changed) when not r.gated -> "trend"
  | Same -> "same"
  | Changed -> "CHANGED"
  | Missing -> "MISSING"
  | Added -> "added"

let fmt_value = function
  | None -> "-"
  | Some v ->
    if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.4g" v

let fmt_delta = function
  | None -> "-"
  | Some d when Float.is_nan d -> "-"
  | Some d when d = Float.infinity -> "+inf"
  | Some d when d = Float.neg_infinity -> "-inf"
  | Some d -> Printf.sprintf "%+.1f%%" (100.0 *. d +. 0.0)

let render ?(only_gated = false) rows =
  let rows = if only_gated then List.filter (fun r -> r.gated) rows else rows in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-52s %-7s %12s %12s %9s  %s\n" "metric" "unit"
       "baseline" "current" "delta" "verdict");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-52s %-7s %12s %12s %9s  %s%s\n" r.key r.unit_
           (fmt_value r.baseline) (fmt_value r.current) (fmt_delta r.delta)
           (verdict_label r)
           (if r.gated then " (gated)" else "")))
    rows;
  Buffer.contents b
