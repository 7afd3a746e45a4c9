(* Typed metric registry: counters, gauges and fixed-bucket latency
   histograms. Lookup-or-create goes through the registry mutex once;
   the returned handle is then updated lock-free (counters, gauges)
   or under a per-histogram mutex (histograms). Names are flat
   strings; dots are a naming convention only. *)

type counter = int Atomic.t

type gauge = float Atomic.t

type histogram = {
  mutex : Mutex.t;
  bounds : float array;        (* upper bucket bounds, ascending *)
  counts : int array;          (* length = Array.length bounds + 1 *)
  mutable total : int;
  mutable sum : float;
  mutable max_value : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type registry = { mutex : Mutex.t; table : (string, metric) Hashtbl.t }

let create () = { mutex = Mutex.create (); table = Hashtbl.create 32 }

(* Process-wide registry: pipeline-level counters (CI cache, …) that
   have no natural owner register here. *)
let default = create ()

let default_latency_bounds =
  [| 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 1e-1; 3e-1; 1.0 |]

let get_or_create reg name build check =
  Mutex.lock reg.mutex;
  let m =
    match Hashtbl.find_opt reg.table name with
    | Some m -> m
    | None ->
        let m = build () in
        Hashtbl.add reg.table name m;
        m
  in
  Mutex.unlock reg.mutex;
  match check m with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Obs.Metric: %S is a different kind" name)

let counter reg name =
  get_or_create reg name
    (fun () -> Counter (Atomic.make 0))
    (function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)

let count ?by name = incr ?by (counter default name)

let counter_value c = Atomic.get c

let gauge reg name =
  get_or_create reg name
    (fun () -> Gauge (Atomic.make 0.))
    (function Gauge g -> Some g | _ -> None)

let set g v = Atomic.set g v

(* Monotone high-water update: lock-free CAS loop, safe under concurrent
   [set]/[set_max] from any domain. *)
let rec set_max g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then set_max g v

let gauge_value g = Atomic.get g

let histogram ?(bounds = default_latency_bounds) reg name =
  get_or_create reg name
    (fun () ->
      Histogram
        {
          mutex = Mutex.create ();
          bounds = Array.copy bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          total = 0;
          sum = 0.;
          max_value = 0.;
        })
    (function Histogram h -> Some h | _ -> None)

(* First bucket whose upper bound admits [v]; last bucket is
   overflow. Bound semantics are inclusive: v <= bounds.(i). *)
let bucket_of h v =
  let n = Array.length h.bounds in
  let rec go i = if i >= n then n else if v <= h.bounds.(i) then i else go (i + 1) in
  go 0

let observe (h : histogram) v =
  Mutex.lock h.mutex;
  h.counts.(bucket_of h v) <- h.counts.(bucket_of h v) + 1;
  h.total <- h.total + 1;
  h.sum <- h.sum +. v;
  if v > h.max_value then h.max_value <- v;
  Mutex.unlock h.mutex

let bounds h = Array.copy h.bounds

type histogram_snapshot = {
  name : string;
  bounds : float array;
  counts : int array;
  total : int;
  sum : float;
  max_value : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram_snapshot list;
}

let snapshot reg =
  Mutex.lock reg.mutex;
  let entries = Hashtbl.fold (fun name m acc -> (name, m) :: acc) reg.table [] in
  Mutex.unlock reg.mutex;
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> counters := (name, Atomic.get c) :: !counters
      | Gauge g -> gauges := (name, Atomic.get g) :: !gauges
      | Histogram h ->
          Mutex.lock h.mutex;
          let s =
            {
              name;
              bounds = Array.copy h.bounds;
              counts = Array.copy h.counts;
              total = h.total;
              sum = h.sum;
              max_value = h.max_value;
            }
          in
          Mutex.unlock h.mutex;
          histograms := s :: !histograms)
    entries;
  let by_name f = List.sort (fun a b -> compare (f a) (f b)) in
  {
    counters = by_name fst !counters;
    gauges = by_name fst !gauges;
    histograms = by_name (fun (h : histogram_snapshot) -> h.name) !histograms;
  }

let clear reg =
  Mutex.lock reg.mutex;
  Hashtbl.reset reg.table;
  Mutex.unlock reg.mutex
