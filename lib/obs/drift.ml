(* Drift monitor: keyed baseline-vs-current scalar tracking.

   Generic on purpose — this layer knows nothing about frames,
   constraints or CI tests. A producer records a baseline value per
   key (e.g. a per-GIVEN-set violation rate, a normalized CI
   statistic), keeps observing the current value as data arrives, and
   the monitor flags the keys whose current value has moved past
   [abs_threshold + rel_threshold * |baseline|]. Consumers decide what
   a key means and what to do about a stale one (re-synthesize the
   affected constraint). Thread-safe: daemon workers observe
   concurrently. *)

type status = Fresh | Stale

type reading = {
  key : string;
  baseline : float;
  current : float;
  shift : float;  (* |current - baseline| *)
  status : status;
}

type cell = { mutable base : float; mutable cur : float }

type t = {
  abs_threshold : float;
  rel_threshold : float;
  cells : (string, cell) Hashtbl.t;
  mutex : Mutex.t;
  (* insertion order, newest first, so [readings] is deterministic *)
  mutable order : string list;
}

let default_abs_threshold = 0.02
let default_rel_threshold = 0.25

let create ?(abs_threshold = default_abs_threshold)
    ?(rel_threshold = default_rel_threshold) () =
  if abs_threshold < 0.0 || rel_threshold < 0.0 then
    invalid_arg "Drift.create: negative threshold";
  {
    abs_threshold;
    rel_threshold;
    cells = Hashtbl.create 16;
    mutex = Mutex.create ();
    order = [];
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let cell t key =
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
    let c = { base = 0.0; cur = 0.0 } in
    Hashtbl.add t.cells key c;
    t.order <- key :: t.order;
    c

let set_baseline t key v =
  locked t @@ fun () ->
  let c = cell t key in
  c.base <- v;
  c.cur <- v

let observe t key v =
  locked t @@ fun () ->
  let c = cell t key in
  c.cur <- v

let status_of t c =
  let shift = Float.abs (c.cur -. c.base) in
  if shift > t.abs_threshold +. (t.rel_threshold *. Float.abs c.base) then
    Stale
  else Fresh

let reading_of t key c =
  {
    key;
    baseline = c.base;
    current = c.cur;
    shift = Float.abs (c.cur -. c.base);
    status = status_of t c;
  }

let status t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.cells key with
  | None -> Fresh
  | Some c -> status_of t c

let readings t =
  locked t @@ fun () ->
  List.rev_map
    (fun key -> reading_of t key (Hashtbl.find t.cells key))
    t.order

let stale t =
  List.filter_map
    (fun r -> if r.status = Stale then Some r.key else None)
    (readings t)

let length t = locked t @@ fun () -> Hashtbl.length t.cells

let pp_status ppf = function
  | Fresh -> Format.pp_print_string ppf "fresh"
  | Stale -> Format.pp_print_string ppf "stale"

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%s: base=%g cur=%g shift=%g %a@," r.key r.baseline
        r.current r.shift pp_status r.status)
    (readings t);
  Format.fprintf ppf "@]"
