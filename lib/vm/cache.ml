(* Bytecode cache: one per compiled validator program.

   Lowering resolves every literal against a frame's dictionaries, so a
   program runs unchanged on any frame that still carries them: the
   frame it was lowered on, its Frame.take/filter row subsets, and
   appends or updates that introduced no new value. The cache is a
   short most-recently-used list of programs probed with
   [Program.compatible]. It keeps no frame identity and no row
   partitions: whoever owns a frame's grouping index passes it to
   [Exec.run]. Lookup and lowering run under a mutex, so the hit/miss
   counters stay schedule-independent. *)

type t = {
  rules : Ruleset.t array;
  mutex : Mutex.t;
  mutable programs : Program.t list;  (* most recently used first *)
}

let hits = lazy (Obs.Metric.counter Obs.Metric.default "vm.cache.hits")
let misses = lazy (Obs.Metric.counter Obs.Metric.default "vm.cache.misses")

(* Distinct dictionary sets retained per compilation. *)
let max_programs = 8

let create rules = { rules; mutex = Mutex.create (); programs = [] }

let get t frame =
  Mutex.protect t.mutex @@ fun () ->
  match List.find_opt (fun p -> Program.compatible p frame) t.programs with
  | Some p ->
    Obs.Metric.incr (Lazy.force hits);
    t.programs <- p :: List.filter (fun q -> q != p) t.programs;
    p
  | None ->
    Obs.Metric.incr (Lazy.force misses);
    let p = Lower.lower frame t.rules in
    t.programs <- List.filteri (fun i _ -> i < max_programs) (p :: t.programs);
    p
