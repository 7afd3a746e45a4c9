type direction = Higher_better | Lower_better

type metric = {
  suite : string;
  workload : string;
  name : string;
  value : float;
  unit_ : string;
  direction : direction;
  gated : bool;
}

let metric ~suite ~workload ~name ~value ~unit_ ?(direction = Lower_better)
    ?(gated = false) () =
  { suite; workload; name; value; unit_; direction; gated }

let key m = Printf.sprintf "%s/%s/%s" m.suite m.workload m.name

type run = {
  schema_version : int;
  rev : string;
  unix_time : float;
  results : metric list;
}

let schema_version = 1

let make_run ~rev ~unix_time results =
  { schema_version; rev; unix_time; results }

let current_rev () =
  match Sys.getenv_opt "GUARDRAIL_BENCH_REV" with
  | Some r when r <> "" -> r
  | _ -> (
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, rev when rev <> "" -> rev
      | _ -> "unknown"
    with _ -> "unknown")

(* ------------------------------------------------------------------ *)
(* JSON codec (Obs.Json) *)

let direction_to_string = function
  | Higher_better -> "higher"
  | Lower_better -> "lower"

let direction_of_string = function
  | "higher" -> Ok Higher_better
  | "lower" -> Ok Lower_better
  | s -> Error (Printf.sprintf "bad direction %S" s)

let metric_to_json m =
  let open Obs.Json in
  Obj
    [ ("suite", Str m.suite);
      ("workload", Str m.workload);
      ("metric", Str m.name);
      ("value", Num m.value);
      ("unit", Str m.unit_);
      ("direction", Str (direction_to_string m.direction));
      ("gated", Bool m.gated) ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (Obs.Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let metric_of_json j =
  let* suite = field "suite" Obs.Json.to_str j in
  let* workload = field "workload" Obs.Json.to_str j in
  let* name = field "metric" Obs.Json.to_str j in
  let* value = field "value" Obs.Json.to_float j in
  let* unit_ = field "unit" Obs.Json.to_str j in
  let* dir = field "direction" Obs.Json.to_str j in
  let* direction = direction_of_string dir in
  let* gated = field "gated" Obs.Json.to_bool j in
  Ok { suite; workload; name; value; unit_; direction; gated }

let run_to_json r =
  let open Obs.Json in
  Obj
    [ ("schema_version", Num (float_of_int r.schema_version));
      ("rev", Str r.rev);
      ("unix_time", Num r.unix_time);
      ("results", List (List.map metric_to_json r.results)) ]

let run_of_json j =
  let* version = field "schema_version" Obs.Json.to_int j in
  if version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* rev = field "rev" Obs.Json.to_str j in
    let* unix_time = field "unix_time" Obs.Json.to_float j in
    let* results = field "results" Obs.Json.to_list j in
    let* results =
      List.fold_left
        (fun acc m ->
          let* acc = acc in
          let* m = metric_of_json m in
          Ok (m :: acc))
        (Ok []) results
    in
    Ok { schema_version = version; rev; unix_time; results = List.rev results }
