(* Thread-safe sharded table registry: the daemon's compile-once cache.
   A table entry carries the frame, its constraint program parsed AND
   compiled exactly once at load/guard time, and an optional prediction
   model — per-request work on the hot paths is then pure table lookups.

   The table map is split into N independently-locked shards keyed by
   the hash of the table name, so concurrent requests for different
   tables never contend on one global mutex. An [entry] is an immutable
   snapshot handle: [find] returns the whole record, and a concurrent
   [load]/[set_program] replaces the shard's binding with a NEW record
   rather than mutating the old one, so a handle obtained before the
   replace keeps pinning its frame, compiled program and ingest state
   (whose group cache is the snapshot's only group index) for as long
   as the caller holds it.

   The expensive steps (CSV parse, program parse + compile, model
   training) run outside the shard mutex; only the map insert/lookup is
   locked. Concurrent loads of the same name are last-write-wins. *)

module Frame = Dataframe.Frame

type program = {
  text : string;                            (* .grl source as received *)
  prog : Guardrail.Dsl.prog;
  compiled : Guardrail.Validator.compiled;
}

type entry = {
  frame : Frame.t;
  program : program option;
  model : (string * Mlmodel.Ensemble.t) option;  (* label, ensemble *)
  ingest : Ingest.t option;
      (* streaming statistics + drift monitor; Some iff program is *)
}

type shard = { mutex : Mutex.t; tables : (string, entry) Hashtbl.t }

type t = { shards : shard array }

let create ?(shards = 8) () =
  if shards < 1 then invalid_arg "Registry.create: shards must be >= 1";
  {
    shards =
      Array.init shards (fun _ ->
          { mutex = Mutex.create (); tables = Hashtbl.create 8 });
  }

let shard_count t = Array.length t.shards

let shard_of t name = t.shards.(Hashtbl.hash name mod Array.length t.shards)

let with_lock shard f =
  Mutex.lock shard.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock shard.mutex) f

let compile_program frame text =
  let prog = Guardrail.Parse.prog (Frame.schema frame) text in
  { text; prog; compiled = Guardrail.Validator.compile prog }

(* Drift/ingest baselines ride along whenever a program is installed:
   the freshly loaded (or re-guarded) table is the "trusted" state the
   monitor compares future ingests against. *)
let ingest_of frame = function
  | None -> None
  | Some p -> Some (Ingest.create p.compiled frame)

let load t ~name ?program ?model_label frame =
  (* numeric/ordinal columns get their binned attribute views now, so
     program parse/fill, ingest statistics and snapshot metadata all see
     the same learned bins (no-op on all-categorical schemas) *)
  let frame = Frame.ensure_domains ~bins:Guardrail.Config.bins frame in
  let program = Option.map (compile_program frame) program in
  let model =
    Option.map
      (fun label ->
        if not (Dataframe.Schema.mem (Frame.schema frame) label) then
          invalid_arg (Printf.sprintf "no column %S to train on" label);
        (label, Mlmodel.Ensemble.train frame ~label))
      model_label
  in
  let entry = { frame; program; model; ingest = ingest_of frame program } in
  let shard = shard_of t name in
  with_lock shard (fun () -> Hashtbl.replace shard.tables name entry);
  entry

let find t name =
  let shard = shard_of t name in
  with_lock shard (fun () -> Hashtbl.find_opt shard.tables name)

let set_program t ~name text =
  match find t name with
  | None -> raise Not_found
  | Some entry ->
    let program = Some (compile_program entry.frame text) in
    let entry =
      { entry with program; ingest = ingest_of entry.frame program }
    in
    let shard = shard_of t name in
    with_lock shard (fun () -> Hashtbl.replace shard.tables name entry);
    entry

(* ------------------------------------------------------------------ *)
(* Streaming ingest

   Appends/updates are read-modify-write: unlike load/set_program
   (last-write-wins replacements), losing a concurrent ingest would
   drop rows. The whole step therefore runs under the shard mutex —
   ingests serialize per shard — while CSV parsing stays with the
   caller, outside the lock. The frame evolves on its own lineage
   ([Frame.extend]/[Frame.update_cells]), so the compiled program's
   bytecode stays valid while the dictionaries do, and the ingest
   state's group cache advances over the delta instead of
   rebuilding. *)

let locked_rmw t ~name f =
  let shard = shard_of t name in
  with_lock shard (fun () ->
      match Hashtbl.find_opt shard.tables name with
      | None -> raise Not_found
      | Some entry ->
        let entry, out = f entry in
        Hashtbl.replace shard.tables name entry;
        (entry, out))

let reframe entry frame =
  let ingest =
    match (entry.ingest, entry.program) with
    | Some i, Some p -> Some (Ingest.advance i p.compiled frame)
    | _, _ -> None
  in
  { entry with frame; ingest }

let append_rows t ~name rows =
  fst
    (locked_rmw t ~name (fun entry ->
         (reframe entry (Frame.extend entry.frame rows), ())))

let update_cells t ~name cells =
  fst
    (locked_rmw t ~name (fun entry ->
         (reframe entry (Frame.update_cells entry.frame cells), ())))

type refresh_report = {
  checked : int;
  stale : string list;
  refreshed : int;
  dropped : int;
}

(* Re-run the HAVING fill (Alg. 1) for exactly the statements the
   drift monitor flagged, splice the refills into the program, and
   rebaseline. Statements that no longer admit an ε-valid branch are
   dropped — the constraint no longer holds on the drifted data. *)
let refresh ?epsilon t ~name =
  let epsilon =
    match epsilon with
    | Some e -> e
    | None -> Guardrail.Config.default.Guardrail.Config.epsilon
  in
  locked_rmw t ~name (fun entry ->
      match (entry.program, entry.ingest) with
      | None, _ | _, None ->
        failwith (Printf.sprintf "table %S has no program to refresh" name)
      | Some p, Some ingest ->
        let prog = p.prog in
        let checked = List.length prog.Guardrail.Dsl.stmts in
        let stale_set = Ingest.stale_stmts ingest in
        let stale = Ingest.stale_keys ingest in
        if stale_set = [] then
          (entry, { checked; stale = []; refreshed = 0; dropped = 0 })
        else begin
          let groups = Ingest.groups ingest in
          let refreshed = ref 0 and dropped = ref 0 in
          let stmts =
            List.filter_map
              (fun (i, (s : Guardrail.Dsl.stmt)) ->
                if not (List.mem i stale_set) then Some s
                else
                  let sketch =
                    Guardrail.Sketch.stmt_sketch ~given:s.given ~on:s.on
                  in
                  match
                    Guardrail.Fill.fill_stmt_sketch ~groups entry.frame
                      ~epsilon sketch
                  with
                  | Some filled ->
                    incr refreshed;
                    Some filled.Guardrail.Fill.stmt
                  | None ->
                    incr dropped;
                    None)
              (List.mapi (fun i s -> (i, s)) prog.Guardrail.Dsl.stmts)
          in
          let prog = { prog with Guardrail.Dsl.stmts } in
          let text = Guardrail.Pretty.prog_to_string prog in
          let compiled = Guardrail.Validator.compile prog in
          let program = Some { text; prog; compiled } in
          let ingest = Some (Ingest.create ~groups compiled entry.frame) in
          ( { entry with program; ingest },
            { checked; stale; refreshed = !refreshed; dropped = !dropped } )
        end)

let remove t name =
  let shard = shard_of t name in
  with_lock shard (fun () -> Hashtbl.remove shard.tables name)

let count t =
  Array.fold_left
    (fun acc shard ->
      acc + with_lock shard (fun () -> Hashtbl.length shard.tables))
    0 t.shards

let list t =
  Array.fold_left
    (fun acc shard ->
      with_lock shard (fun () ->
          Hashtbl.fold (fun name entry l -> (name, entry) :: l) shard.tables acc))
    [] t.shards
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
