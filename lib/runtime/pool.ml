(* Fixed-size OCaml 5 Domain worker pool with a mutex/condition work
   queue. Shared by the offline synthesis pipeline (lib/core, lib/pgm)
   and the serving daemon (lib/service): jobs must be self-contained and
   side-effect-free on shared state; the pool only bounds how many run at
   once.

   Shutdown is graceful by construction: [shutdown] refuses new jobs but
   workers keep draining the queue, so everything accepted before the
   shutdown request still runs to completion. A second [shutdown] is a
   no-op — the worker array is detached under the lock before joining, so
   even concurrent callers join each domain exactly once. *)

exception Stopped

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;      (* queue gained a job, or stopping *)
  jobs : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable active : int;        (* jobs currently executing *)
  mutable domains : unit Domain.t array;
}

let size t = Array.length t.domains

let worker t () =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.jobs && not t.stopping do
      Condition.wait t.nonempty t.mutex
    done;
    if Queue.is_empty t.jobs then begin
      (* stopping and drained *)
      Mutex.unlock t.mutex;
      ()
    end
    else begin
      let job = Queue.pop t.jobs in
      t.active <- t.active + 1;
      Mutex.unlock t.mutex;
      (try job () with _ -> ());
      Mutex.lock t.mutex;
      t.active <- t.active - 1;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let create ?(size = 4) () =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      stopping = false;
      active = 0;
      domains = [||];
    }
  in
  t.domains <- Array.init size (fun _ -> Domain.spawn (worker t));
  t

let post t job =
  (* Capture the submitter's span context so spans opened inside the
     job parent under the submitting span even though the job runs on
     a worker domain. [ctx] is a constant when tracing is disabled,
     and [with_ctx Off] is just [job ()], so the untraced path stays
     wrapper-free in cost. *)
  let ctx = Obs.Span.ctx () in
  let job =
    if Obs.Span.is_off ctx then job
    else fun () -> Obs.Span.with_ctx ctx job
  in
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    raise Stopped
  end;
  Queue.push job t.jobs;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

(* Futures for callers that need the job's result back. *)
type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable state : 'a state;
}

let submit t f =
  let fut = { fmutex = Mutex.create (); fcond = Condition.create (); state = Pending } in
  let resolve state =
    Mutex.lock fut.fmutex;
    fut.state <- state;
    Condition.broadcast fut.fcond;
    Mutex.unlock fut.fmutex
  in
  post t (fun () ->
      match f () with
      | v -> resolve (Done v)
      | exception e -> resolve (Failed e));
  fut

let await fut =
  Mutex.lock fut.fmutex;
  while (match fut.state with Pending -> true | _ -> false) do
    Condition.wait fut.fcond fut.fmutex
  done;
  let state = fut.state in
  Mutex.unlock fut.fmutex;
  match state with
  | Done v -> v
  | Failed e -> raise e
  | Pending -> assert false

let map_list t f xs = List.map await (List.map (fun x -> submit t (fun () -> f x)) xs)

(* Split [xs] into consecutive groups of at most [size] elements. *)
let chunks ~size xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let parmap ?pool ?chunk f xs =
  match (pool, xs) with
  | None, _ | _, ([] | [ _ ]) -> List.map f xs
  | Some t, _ when size t < 2 -> List.map f xs
  | Some t, _ ->
    let n = List.length xs in
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (4 * size t))
    in
    List.concat (map_list t (List.map f) (chunks ~size:chunk xs))

(* Jobs accepted but not yet finished: queued plus executing. *)
let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.jobs + t.active in
  Mutex.unlock t.mutex;
  n

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  (* Detach the worker array under the lock: a second (or concurrent)
     shutdown sees [||] and joins nothing, so every domain is joined
     exactly once and repeat calls are genuine no-ops. *)
  let domains = t.domains in
  t.domains <- [||];
  Mutex.unlock t.mutex;
  Array.iter Domain.join domains
