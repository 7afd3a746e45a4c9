(* Bytecode cache: one per compiled validator program.

   Lowering resolves every literal against a frame's dictionaries, so a
   program runs unchanged on any frame that still carries them: the
   frame it was lowered on (at any selection of its rows, which is how a
   query's kept rows are checked), Frame.take/filter copies such as an
   append's delta rows, and appends or updates that introduced no new
   value. The cache is a
   short most-recently-used list of programs probed with
   [Program.compatible]. It keeps no frame identity; a returned program
   carries its decision tables' key->rule memos, so every frame served
   by one lowering shares them, warm. Lookup and lowering run under a
   mutex, so the hit/miss counters stay schedule-independent; memos are
   filled outside it (see Program). *)

type t = {
  rules : Ruleset.t array;
  mutex : Mutex.t;
  mutable programs : Program.t list;  (* most recently used first *)
}

(* Distinct dictionary sets retained per compilation. *)
let max_programs = 8

let create rules = { rules; mutex = Mutex.create (); programs = [] }

let get t frame =
  Mutex.protect t.mutex @@ fun () ->
  match List.find_opt (fun p -> Program.compatible p frame) t.programs with
  | Some p ->
    Obs.Metric.count "vm.cache.hits";
    t.programs <- p :: List.filter (fun q -> q != p) t.programs;
    p
  | None ->
    Obs.Metric.count "vm.cache.misses";
    let p = Lower.lower frame t.rules in
    t.programs <- List.filteri (fun i _ -> i < max_programs) (p :: t.programs);
    p
