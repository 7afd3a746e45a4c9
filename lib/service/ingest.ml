(* Streaming-ingest state of one registered table.

   Alongside the frame and its compiled program, the daemon keeps the
   sufficient statistics that make appends cheap and staleness
   detectable:

   - a frame-keyed [Group.Cache] over the table's columns, advanced
     with [Group.Cache.advance] on every append (cached groupings
     extend over the delta instead of regrouping). It is the snapshot's only group
     index: the validator's decision tables group on it too, here and
     on the daemon's DETECT/RECTIFY over the registered frame;
   - per-statement contingency tables of the GIVEN grouping against
     the ON column, extended with [Stat.Contingency.extend] (only the
     delta rows are counted);
   - per-statement cumulative violation counts, incremented by running
     the compiled validator over just the delta rows;
   - an [Obs.Drift] monitor with two keys per statement — the
     violation rate ["viol:GIVEN .. ON .."] and the Cramér's-V-style
     CI effect size ["ci:GIVEN .. ON .."] — whose baselines are set at
     load/guard/refresh time and observed after every ingest.

   A statement goes stale when either of its keys drifts past the
   monitor's thresholds; REFRESH re-runs the HAVING fill (Alg. 1) for
   exactly those statements. Everything here is an immutable snapshot
   except the drift monitor, which is shared along the lineage (the
   registry serializes ingests per table, so observations are ordered). *)

module Frame = Dataframe.Frame
module Group = Dataframe.Group

type stmt_stat = {
  index : int;  (* statement position in the program *)
  key : string;  (* "GIVEN a,b ON c" *)
  given : int list;
  on : int;
  table : Stat.Contingency.table;
  violations : int;  (* cumulative violating rows of this statement *)
}

type t = {
  epoch : int;  (* Frame.Snapshot.epoch the statistics match *)
  nrows : int;
  groups : Group.Cache.t;
  stmts : stmt_stat list;
  drift : Obs.Drift.t;
}

let key_of_stmt schema (stmt : Guardrail.Dsl.stmt) =
  Printf.sprintf "GIVEN %s ON %s"
    (String.concat ","
       (List.map (Dataframe.Schema.name schema) stmt.Guardrail.Dsl.given))
    (Dataframe.Schema.name schema stmt.Guardrail.Dsl.on)

let viol_key k = "viol:" ^ k
let ci_key k = "ci:" ^ k

(* Per-statement violation counts of one frame, in program order. The
   compiled validator reports (row, stmt) pairs; rows only matter as a
   count here, so running it over a delta sub-frame counts exactly the
   delta's violations. *)
let violation_counts compiled frame stmts =
  let counts = Array.make (List.length stmts) 0 in
  List.iter
    (fun (v : Guardrail.Validator.violation) ->
      List.iteri
        (fun i (s : Guardrail.Dsl.stmt) ->
          if s = v.stmt then counts.(i) <- counts.(i) + 1)
        stmts)
    (Guardrail.Validator.violations compiled frame);
  counts

let ci_effect (table : Stat.Contingency.table) =
  if table.total = 0 then 0.0
  else
    let stat, _df = Stat.Ci.table_stat Stat.Ci.Chi_square table in
    Stat.Ci.effect_size ~kx:table.kx ~ky:table.ky ~n:table.total stat

let rate violations nrows =
  if nrows = 0 then 0.0 else float_of_int violations /. float_of_int nrows

let observe ~baseline drift s =
  let record = if baseline then Obs.Drift.set_baseline else Obs.Drift.observe in
  record drift (viol_key s.key) (rate s.violations s.table.total);
  record drift (ci_key s.key) (ci_effect s.table)

(* Contingency over the attribute views: a binned ON column contributes
   its bounded bin marginals, not one cell per raw numeric value. *)
let stmt_table groups frame given on =
  let g = Group.Cache.get groups given in
  Stat.Contingency.two_way ~kx:(Group.n_groups g)
    ~ky:(Frame.attr_card frame on)
    (Group.ids g)
    (Frame.attr_codes frame on)

(* Full (re)computation of the statistics — the load/guard/refresh
   baseline, and the fallback when a delta is not a pure append. *)
let compute ?groups ~drift ~baseline compiled frame =
  let prog = Guardrail.Validator.source compiled in
  let schema = Frame.schema frame in
  let groups =
    match groups with Some g -> g | None -> Group.Cache.of_frame frame
  in
  let counts = violation_counts compiled frame prog.Guardrail.Dsl.stmts in
  let stmts =
    List.mapi
      (fun index (s : Guardrail.Dsl.stmt) ->
        {
          index;
          key = key_of_stmt schema s;
          given = s.given;
          on = s.on;
          table = stmt_table groups frame s.given s.on;
          violations = counts.(index);
        })
      prog.Guardrail.Dsl.stmts
  in
  List.iter (observe ~baseline drift) stmts;
  {
    epoch = Frame.Snapshot.epoch frame;
    nrows = Frame.nrows frame;
    groups;
    stmts;
    drift;
  }

let create ?drift ?groups compiled frame =
  let drift = match drift with Some d -> d | None -> Obs.Drift.create () in
  compute ?groups ~drift ~baseline:true compiled frame

(* Carry the statistics to a later snapshot of the table's lineage.
   Pure-append deltas take the incremental path: groups advance, each
   contingency table extends over the delta rows only, and the
   validator runs over the delta sub-frame. Anything else recomputes
   from scratch. Either way the drift monitor keeps its baselines and
   observes the new values. *)
let advance t compiled frame =
  match Frame.Delta.since frame ~epoch:t.epoch with
  | Frame.Delta.Unchanged -> t
  | Frame.Delta.Rows_appended { base_rows }
    when base_rows = t.nrows
         && fst (Group.Cache.frame_key t.groups) = Frame.Snapshot.id frame ->
    let n = Frame.nrows frame in
    let groups = Group.Cache.advance t.groups frame in
    let delta_frame =
      Frame.take frame (Array.init (n - base_rows) (fun i -> base_rows + i))
    in
    let prog = Guardrail.Validator.source compiled in
    let delta_counts =
      violation_counts compiled delta_frame prog.Guardrail.Dsl.stmts
    in
    let stmts =
      List.map
        (fun s ->
          let g = Group.Cache.get groups s.given in
          let table =
            Stat.Contingency.extend s.table ~kx:(Group.n_groups g)
              ~ky:(Frame.attr_card frame s.on)
              (Group.ids g)
              (Frame.attr_codes frame s.on)
              ~base:base_rows
          in
          { s with table; violations = s.violations + delta_counts.(s.index) })
        t.stmts
    in
    List.iter (observe ~baseline:false t.drift) stmts;
    { epoch = Frame.Snapshot.epoch frame; nrows = n; groups; stmts; drift = t.drift }
  | _ -> compute ~drift:t.drift ~baseline:false compiled frame

let epoch t = t.epoch
let groups t = t.groups
let drift t = t.drift
let readings t = Obs.Drift.readings t.drift

let stmt_status t s =
  if
    Obs.Drift.status t.drift (viol_key s.key) = Obs.Drift.Stale
    || Obs.Drift.status t.drift (ci_key s.key) = Obs.Drift.Stale
  then Obs.Drift.Stale
  else Obs.Drift.Fresh

(* Indices of statements whose GIVEN set drifted stale, program order. *)
let stale_stmts t =
  List.filter_map
    (fun s -> if stmt_status t s = Obs.Drift.Stale then Some s.index else None)
    t.stmts

(* The drift keys currently flagged, in first-touch order — what the
   REFRESHED reply reports. *)
let stale_keys t = Obs.Drift.stale t.drift

let violation_rate t index =
  match List.find_opt (fun s -> s.index = index) t.stmts with
  | None -> 0.0
  | Some s -> rate s.violations t.nrows
