(* serve_mixed: a `guardrail serve` child process (pool 2) holding three
   LOADed tables (from ds2, ds9 and ds12), each with a program and a
   model, driven open-loop by one generator thread over 2 connections:
   seeded arrivals, skewed table popularity, about 75% reads (DETECT
   and guarded SQL from each table's 4 workload queries) and 25% writes
   (50-row APPEND batches and UPDATE cell edits). The daemon runs in its
   own process so the generator's GC never pauses its domains.

   A run climbs a ladder of offered rates (capacity), holds one fixed
   rate (latency), and climbs the ladder again, each phase on a
   freshly started daemon, so appended rows stay small next to the base
   rows and a read costs about the same throughout. *)

open Common
module Frame = Dataframe.Frame
module P = Service.Protocol

let pool = 2
let n_conns = 2
let append_batch = 50
let extra_rows = 2_000

(* Offered rates, requests per second at the reference speed (see
   [on_daemon]). The fixed rate is about a third of the mix's capacity
   on a 2-core machine: at half, replies queued behind slower ones on
   the same connection (replies go out in arrival order) made the
   median swing by a fifth between runs. *)
let fixed_rate = 40.0

(* The fixed rate runs in windows of [window_requests], each timed
   against the machine's speed sampled just before and after it, and
   split into blocks of [block_requests] consecutive requests. The
   largest of m independent draws is at most the p99 with probability
   0.99^m, so that quantile of the block maxima estimates the p99; unlike
   the p99 of all requests pooled, it barely moves when a slow spell of
   the machine spoils a few windows. *)
let window_requests = 69
let block_requests = 23

let ladder = [ 90.0; 105.0; 120.0; 135.0; 150.0; 165.0; 180.0; 195.0 ]

(* A ladder step meets the limit when its reads' p99, timed from their
   due time, stays under this, nothing is shed and the backlog does
   not grow. *)
let read_p99_limit_ms = 300.0

(* Sending waits while this many requests are outstanding; with at
   least [saturated_at] outstanding the daemon has work queued behind
   both workers, so its reply rate then is its service rate. *)
let max_backlog = 48
let saturated_at = 8
let drain_s = 5.0

(* dataset id, base rows, popularity *)
let table_specs = [ (2, 12_000, 0.55); (9, 5_043, 0.30); (12, 12_000, 0.15) ]

type table = {
  name : string;
  label : string;
  weight : float;
  header : string list;
  base : string array array;       (* base rows, as CSV fields *)
  extra : string array array;      (* APPEND rows, used cyclically *)
  program : string;
  queries : string list;
}

let csv_of header rows =
  let line fields = String.concat "," (List.map Dataframe.Csv.escape_field fields) in
  String.concat "\n" (line header :: List.map (fun r -> line (Array.to_list r)) rows)
  ^ "\n"

let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then Buffer.add_substring b s i (String.length s - i)
    else if String.sub s i n = sub then (Buffer.add_string b by; go (i + n))
    else (Buffer.add_char b s.[i]; go (i + 1))
  in
  go 0;
  Buffer.contents b

let tables ~seed synth_pool =
  Array.of_list
    (List.map
       (fun (id, rows, weight) ->
         let spec = Datagen.Spec.by_id id in
         let built, full =
           Datagen.Generate.dataset ~seed_offset:seed ~n_rows:(rows + extra_rows) spec
         in
         let base = Frame.take full (Array.init rows Fun.id) in
         let name = Printf.sprintf "ds%d" id in
         let all =
           match Dataframe.Csv.parse_string (Dataframe.Csv.to_string full) with
           | header :: body -> (header, Array.of_list (List.map Array.of_list body))
           | [] -> failwith "empty dataset"
         in
         let synth = Guardrail.Synthesize.run ~pool:synth_pool base in
         {
           name;
           label = spec.Datagen.Spec.label;
           weight;
           header = fst all;
           base = Array.sub (snd all) 0 rows;
           extra = Array.sub (snd all) rows extra_rows;
           program = Guardrail.Pretty.prog_to_string synth.Guardrail.Synthesize.program;
           queries =
             List.map
               (fun q -> replace_all ~sub:" FROM t" ~by:(" FROM " ^ name) q.Datagen.Workloads.sql)
               (Datagen.Workloads.for_dataset built base);
         })
       table_specs)

let load_request t =
  P.Request.load ~table:t.name ~csv:(csv_of t.header (Array.to_list t.base))
    ~program:t.program ~model_label:t.label ()

(* Load every table into a freshly started daemon. *)
let load_all d tables =
  let fd = List.hd d.Loadgen.conns in
  Array.iter
    (fun t ->
      match Loadgen.call fd (load_request t) with
      | P.Loaded { rows; _ } when rows = Array.length t.base -> ()
      | P.Error_reply e -> failwith ("LOAD " ^ t.name ^ ": " ^ e)
      | _ -> failwith ("LOAD " ^ t.name ^ ": unexpected reply"))
    tables

(* ------------------------------------------------------------------ *)
(* The request mix *)

type kind = Detect | Sql | Append | Update

let kind_name = function
  | Detect -> "detect" | Sql -> "sql" | Append -> "append" | Update -> "update"

let is_read = function Detect | Sql -> true | Append | Update -> false

type op = {
  kind : kind;
  table : int;
  req : P.request;
  rows : string array array;            (* APPEND: the rows sent *)
  cell : (int * int * string) option;   (* UPDATE: row, column, value *)
}

(* Per-daemon cursors: appends walk the extra rows; updates touch each
   base row at most once per daemon, so writes that the daemon runs
   concurrently commute and the final state is known. *)
type cursors = {
  appended : int array;
  updated : int array;
  queried : int array;
  order : int array array;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let cursors rng tables =
  {
    appended = Array.make (Array.length tables) 0;
    updated = Array.make (Array.length tables) 0;
    queried = Array.make (Array.length tables) 0;
    order =
      Array.map
        (fun t ->
          let a = Array.init (Array.length t.base) Fun.id in
          shuffle rng a;
          a)
        tables;
  }

let kind_shares = [ (Detect, 0.25); (Sql, 0.50); (Append, 0.08); (Update, 0.17) ]

(* [n] (table, kind) slots in exactly the mix's proportions (largest
   remainders), in seeded random order. Drawing each request's table
   and kind independently instead let the share of slow requests vary
   from run to run, and the median and tail with it. *)
let mix rng tables n =
  let cells =
    List.concat_map
      (fun ti ->
        List.map
          (fun (k, share) -> ((ti, k), float_of_int n *. tables.(ti).weight *. share))
          kind_shares)
      (List.init (Array.length tables) Fun.id)
  in
  let floors = List.map (fun (c, x) -> (c, int_of_float x, x -. Float.floor x)) cells in
  let short = n - List.fold_left (fun acc (_, k, _) -> acc + k) 0 floors in
  let by_remainder = List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare b a) floors in
  let slots =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i (c, k, _) -> List.init (if i < short then k + 1 else k) (fun _ -> c))
            by_remainder))
  in
  shuffle rng slots;
  slots

let draw rng tables cur (ti, kind) =
  let t = tables.(ti) in
  let mk kind req = { kind; table = ti; req; rows = [||]; cell = None } in
  match kind with
  | Detect -> mk Detect (P.Request.detect ~table:t.name ())
  | Sql ->
    let k = cur.queried.(ti) in
    cur.queried.(ti) <- k + 1;
    let q = List.nth t.queries (k mod List.length t.queries) in
    mk Sql (P.Request.sql ~query:q ~guard_table:t.name ())
  | Append ->
    let start = cur.appended.(ti) in
    cur.appended.(ti) <- start + append_batch;
    let rows =
      Array.init append_batch (fun i -> t.extra.((start + i) mod Array.length t.extra))
    in
    {
      (mk Append (P.Request.append ~table:t.name ~csv:(csv_of t.header (Array.to_list rows))))
      with rows;
    }
  | Update ->
    let k = cur.updated.(ti) in
    cur.updated.(ti) <- k + 1;
    let row = cur.order.(ti).(k mod Array.length t.base) in
    let label_col =
      let rec find i = function
        | [] -> -1 | h :: rest -> if h = t.label then i else find (i + 1) rest
      in
      find 0 t.header
    in
    let col =
      let c = Random.State.int rng (List.length t.header - 1) in
      if c >= label_col && label_col >= 0 then c + 1 else c
    in
    let value = t.base.(Random.State.int rng (Array.length t.base)).(col) in
    {
      (mk Update
         (P.Request.update ~table:t.name ~cells:[ (row, List.nth t.header col, value) ]))
      with cell = Some (row, col, value);
    }

(* Arrivals at [rate] over [seconds]: a Poisson process conditioned on
   its count, so the offered rate is exact and the times are random. *)
let arrivals rng ~rate ~seconds ~offset =
  let n = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let a = Array.init n (fun _ -> offset +. Random.State.float rng seconds) in
  Array.sort Float.compare a;
  a

let schedule ops dues =
  Array.mapi
    (fun i (op : op) ->
      { Loadgen.due = dues.(i); conn = i mod n_conns;
        framed = P.frame (P.encode_request op.req) })
    ops

(* ------------------------------------------------------------------ *)
(* Checking replies *)

type verdict = Good | Shed | Bad | Unsent  (* Unsent: cut off by a deep backlog *)

let verdict tables (op : op) = function
  | None -> Bad
  | Some P.Busy_reply -> Shed
  | Some reply ->
    let t = tables.(op.table) in
    let ok =
      match (op.kind, reply) with
      | Detect, P.Detections { flags; _ } -> Array.length flags >= Array.length t.base
      | Sql, P.Sql_result { rows; _ } -> rows >= 1
      | Append, P.Ingested { table; rows; _ } -> table = t.name && rows = append_batch
      | Update, P.Ingested { table; rows; _ } -> table = t.name && rows = 0
      | _ -> false
    in
    if ok then Good else Bad

(* Per table, INGESTED totals never fall as the epoch advances. *)
let ingested_monotone replies =
  let by_table = Hashtbl.create 3 in
  Array.iter
    (function
      | Some (P.Ingested { table; total_rows; epoch; _ }) ->
        Hashtbl.replace by_table table
          ((epoch, total_rows) :: Option.value ~default:[] (Hashtbl.find_opt by_table table))
      | _ -> ())
    replies;
  Hashtbl.fold
    (fun _ l ok ->
      let rec mono = function
        | (e1, r1) :: ((e2, r2) :: _ as rest) -> e1 < e2 && r1 <= r2 && mono rest
        | _ -> true
      in
      ok && mono (List.sort compare l))
    by_table true

let select_all t = "SELECT " ^ String.concat ", " t.header ^ " FROM " ^ t.name

(* Final state of each table against an in-process reconstruction: the
   row count is base plus appended, and the daemon's DETECT flags equal
   [Validator.detect] on the final rows (compared as a multiset of
   (row, flag), since concurrent writes may interleave appends). *)
let final_check d tables (ops : op array) (verdicts : verdict array) =
  let fd = List.hd d.Loadgen.conns in
  Array.to_list
    (Array.mapi
       (fun ti t ->
         let rows = Array.map Array.copy t.base in
         let appended = ref [] in
         Array.iteri
           (fun i (op : op) ->
             if op.table = ti && verdicts.(i) = Good then
               match (op.kind, op.cell) with
               | Update, Some (r, c, v) -> rows.(r).(c) <- v
               | Append, _ -> appended := op.rows :: !appended
               | _ -> ())
           ops;
         let expected = Array.to_list rows @ List.concat_map Array.to_list (List.rev !appended) in
         let frame = Dataframe.Csv.of_string (csv_of t.header expected) in
         let compiled =
           Guardrail.Validator.compile (Guardrail.Parse.prog (Frame.schema frame) t.program)
         in
         let flags = Guardrail.Validator.detect compiled frame in
         let key row flag = String.concat "," (Array.to_list row) ^ if flag then "|1" else "|0" in
         let want = List.sort compare (List.mapi (fun i r -> key r flags.(i)) expected) in
         let got =
           match
             ( Loadgen.call fd (P.Request.sql ~query:(select_all t) ()),
               Loadgen.call fd (P.Request.detect ~table:t.name ()) )
           with
           | P.Sql_result { csv; _ }, P.Detections { flags; _ } ->
             (match Dataframe.Csv.parse_string csv with
              | _ :: body when List.length body = Array.length flags ->
                Some (List.sort compare (List.mapi (fun i r -> key (Array.of_list r) flags.(i)) body))
              | _ -> None)
           | _ -> None
         in
         if got <> Some want then note "serve_mixed: final state of %s differs" t.name;
         (got = Some want, String.concat "\n" want))
       tables)

(* ------------------------------------------------------------------ *)
(* Phases *)

type phase = {
  ops : op array;
  dues : float array;
  result : Loadgen.result;
  verdicts : verdict array;
  start_s : float array;  (* step start times *)
  cal : float;  (* median calibration time just before and after it *)
}

let run_phase d tables ~rng ~cur ~steps =
  let step_len = List.map snd steps in
  let offsets =
    List.rev (snd (List.fold_left (fun (o, acc) l -> (o +. l, o :: acc)) (0.0, []) step_len))
  in
  let dues =
    Array.concat
      (List.map2 (fun (rate, seconds) offset -> arrivals rng ~rate ~seconds ~offset) steps offsets)
  in
  let ops = Array.map (draw rng tables cur) (mix rng tables (Array.length dues)) in
  let boundaries = Array.of_list (offsets @ [ List.fold_left ( +. ) 0.0 step_len ]) in
  let pre = calibration_samples () in
  let result =
    span "loadgen.run" (fun () ->
        Loadgen.run ~boundaries ~max_backlog ~saturated_at ~drain_s
          (Array.of_list d.Loadgen.conns)
          (schedule ops dues))
  in
  let cal = median (pre @ calibration_samples ()) in
  let verdicts =
    Array.mapi
      (fun i op ->
        if Float.is_nan result.Loadgen.sent.(i) then Unsent
        else verdict tables op result.Loadgen.replies.(i))
      ops
  in
  Array.iteri
    (fun i v ->
      if v = Bad then
        note "serve_mixed: bad reply to %s on %s: %s" (kind_name ops.(i).kind)
          tables.(ops.(i).table).name
          (match result.Loadgen.replies.(i) with
           | None -> "no reply"
           | Some (P.Error_reply e) -> e
           | Some _ -> "unexpected reply to " ^ P.request_command ops.(i).req))
    verdicts;
  (* replies still owed leave a connection out of step: reconnect *)
  if not (Loadgen.all_answered result) then begin
    List.iter Unix.close d.Loadgen.conns;
    d.Loadgen.conns <- List.init n_conns (fun _ -> Loadgen.connect d.Loadgen.socket)
  end;
  { ops; dues; result; verdicts; start_s = Array.of_list offsets; cal }

let select (p : phase) f =
  List.filter f (List.init (Array.length p.ops) Fun.id)

(* Latency of request [i], from its due time. *)
let latency_ms (p : phase) i = (p.result.Loadgen.replied.(i) -. p.dues.(i)) *. 1e3

type step = {
  rate : float;          (* offered, requests per second *)
  met : bool;
  backlog_start : int;
  backlog_end : int;
  read_p99_ms : float;
  completed_rate : float;  (* replies received during the step, per second *)
}

(* The ladder's steps as one sweep saw them. *)
let ladder_steps (p : phase) ~step_s =
  List.mapi
    (fun k rate ->
      let lo = p.start_s.(k) in
      let hi = lo +. step_s in
      let idx = select p (fun i -> p.dues.(i) >= lo && p.dues.(i) < hi) in
      let reads = List.filter (fun i -> is_read p.ops.(i).kind) idx in
      let answered = List.for_all (fun i -> p.verdicts.(i) = Good) idx in
      let p99 = if answered then percentile 0.99 (List.map (latency_ms p) reads) else Float.infinity in
      let backlog_start = snd p.result.Loadgen.boundaries.(k)
      and backlog_end = snd p.result.Loadgen.boundaries.(k + 1) in
      let growing = backlog_end - backlog_start > max 8 (List.length idx / 10) in
      let completed =
        Array.fold_left
          (fun n t -> if t >= lo && t < hi then n + 1 else n)
          0 p.result.Loadgen.replied
      in
      {
        rate;
        met = answered && (not growing) && p99 <= read_p99_limit_ms;
        backlog_start;
        backlog_end;
        read_p99_ms = (if Float.is_finite p99 then p99 else 0.0);
        completed_rate = float_of_int completed /. step_s;
      })
    ladder

(* A sweep's capacity: the daemon's reply rate while the ladder kept it
   saturated. Unlike the highest step that met the limit, it is not
   quantized to the ladder. A sweep that never saturated the daemon
   gives the reply rate of its last step, a lower bound. *)
let capacity (p : phase) steps =
  let r = p.result in
  if r.Loadgen.saturated_s >= 0.5 then
    float_of_int r.Loadgen.saturated_replies /. r.Loadgen.saturated_s
  else (List.nth steps (List.length steps - 1)).completed_rate

let stats d =
  match Loadgen.call (List.hd d.Loadgen.conns) (P.Request.stats ()) with
  | P.Stats_reply _ as s -> s
  | _ -> failwith "STATS: unexpected reply"

let sheds (s : P.response) =
  match s with
  | P.Stats_reply { rendered; served; _ } ->
    (match
       Scanf.sscanf_opt rendered "uptime %_fs, %_d connection(s), %_d request(s) served, %_d protocol error(s), %d shed"
         (fun n -> n)
     with
     | Some n -> (n, served)
     | None -> (0, served))
  | _ -> (0, 0)

(* Server-side mean execute time of reads between two STATS replies. *)
let read_execute_ms s0 s1 =
  let cmds = function P.Stats_reply { commands; _ } -> commands | _ -> [] in
  let find l c =
    match List.find_opt (fun (x : P.command_stat) -> x.P.command = c) l with
    | Some x -> (float_of_int x.P.count, x.P.mean_ms *. float_of_int x.P.count)
    | None -> (0.0, 0.0)
  in
  let n, total =
    List.fold_left
      (fun (n, total) c ->
        let n0, t0 = find (cmds s0) c and n1, t1 = find (cmds s1) c in
        (n +. n1 -. n0, total +. t1 -. t0))
      (0.0, 0.0) [ "DETECT"; "SQL" ]
  in
  ratio total n

(* ------------------------------------------------------------------ *)
(* In-process replay of a phase's request sequence for the service
   layer: codec, execute per command, registry append. *)

let replay tables (ops : op array) ~seconds =
  let registry = Service.Registry.create () in
  let server =
    Service.Server.create ~config:(Service.Server.Config.make ~pool_size:pool ()) registry
  in
  Fun.protect
    ~finally:(fun () -> Service.Server.shutdown server)
    (fun () ->
      Array.iter (fun t -> ignore (Service.Server.handle_request server (load_request t))) tables;
      let before = counters () in
      let codec = ref 0.0 and registry_append = ref [] and bad = ref 0 in
      let exec = Hashtbl.create 4 in
      let start = now () in
      let n = ref 0 in
      while !n < Array.length ops && now () -. start < seconds do
        let op = ops.(!n) in
        incr n;
        let req, c1 =
          time (fun () ->
              span "service.codec" (fun () -> P.decode_request (P.encode_request op.req)))
        in
        let resp, e =
          time (fun () ->
              span ("service.execute." ^ kind_name op.kind) (fun () ->
                  match req with
                  | P.Append { table; csv } ->
                    let rows = Dataframe.Csv.of_string csv in
                    let entry, a =
                      time (fun () ->
                          span "service.registry_append" (fun () ->
                              Service.Registry.append_rows registry ~name:table rows))
                    in
                    registry_append := a :: !registry_append;
                    P.Ingested
                      { table; rows = Frame.nrows rows;
                        total_rows = Frame.nrows entry.Service.Registry.frame;
                        epoch = Frame.Snapshot.epoch entry.Service.Registry.frame }
                  | _ -> Service.Server.handle_request server req))
        in
        let resp, c2 =
          time (fun () ->
              span "service.codec" (fun () -> P.decode_response (P.encode_response resp)))
        in
        if verdict tables op (Some resp) <> Good then incr bad;
        codec := !codec +. c1 +. c2;
        Hashtbl.replace exec op.kind (e :: Option.value ~default:[] (Hashtbl.find_opt exec op.kind))
      done;
      let wall = now () -. start in
      let after = counters () in
      let delta = counter_delta before after in
      let executes = Hashtbl.fold (fun _ l acc -> sum l +. acc) exec 0.0 in
      let n = float_of_int (max 1 !n) in
      let exec_ms k = 1e3 *. mean (Option.value ~default:[] (Hashtbl.find_opt exec k)) in
      let group_hits = delta "group.cache.hits" and group_misses = delta "group.cache.misses" in
      let vm_hits = delta "vm.cache.hits" and vm_misses = delta "vm.cache.misses" in
      ( [ ("service.codec_us", 1e6 *. !codec /. n);
          ("service.execute_ms.detect", exec_ms Detect);
          ("service.execute_ms.sql", exec_ms Sql);
          ("service.execute_ms.append", exec_ms Append);
          ("service.execute_ms.update", exec_ms Update);
          ("service.registry_append_ms", 1e3 *. mean !registry_append);
          ("dataframe.group_cache_hit_rate", ratio group_hits (group_hits +. group_misses));
          ("vm.cache_hit_rate", ratio vm_hits (vm_hits +. vm_misses));
          ("vm.rows_validated", delta "vm.rows.validated");
          ("dataframe.group_cache_extended", delta "group.cache.extended");
          ("dataframe.group_cache_rebuilt", delta "group.cache.rebuilt");
          ("serve_mixed.unattributed_ms", 1e3 *. (wall -. !codec -. executes) /. n) ],
        int_of_float n,
        !bad,
        !codec +. executes <= wall ))

(* ------------------------------------------------------------------ *)

(* Phases on a daemon of its own: its start and LOADs are one set-up
   sample, then the phases [plan] gives for the machine's current pace
   run back to back (each drains before the next), then (if asked) the
   final-state checks, and the daemon's peak RSS is read before it
   stops.

   The pace is the machine's speed over the reference speed, measured
   around the set-up, and every offered rate is the rate given here
   times the pace: the daemon then meets the same load relative to
   what it can serve whether the host is in a fast or a slow spell.
   With fixed rates the fixed rate's utilization, and the queueing in
   its tail, followed the host's speed, which drifted by up to 2x
   between runs. *)
type run_on = {
  phases : phase list;
  setup_s : float;
  stats0 : P.response;
  stats1 : P.response;
  checks : (bool * string) list;
  rss_mb : float;
}

let on_daemon tables ~rng ~plan ~check =
  let before = calibration_samples () in
  let d, setup_s =
    time (fun () ->
        let d = Loadgen.start ~pool ~n_conns in
        load_all d tables;
        d)
  in
  let pace = reference_cal_s /. median (before @ calibration_samples ()) in
  Fun.protect
    ~finally:(fun () -> Loadgen.stop d)
    (fun () ->
      let pid = string_of_int d.Loadgen.pid in
      let stats0 = stats d in
      let cur = cursors rng tables in
      let phases = List.map (fun steps -> run_phase d tables ~rng ~cur ~steps) (plan pace) in
      let stats1 = stats d in
      let checks =
        if check then
          final_check d tables
            (Array.concat (List.map (fun p -> p.ops) phases))
            (Array.concat (List.map (fun p -> p.verdicts) phases))
        else []
      in
      { phases; setup_s; stats0; stats1; checks; rss_mb = peak_rss_mb pid })

let latencies (r : run_on) kinds =
  List.concat_map
    (fun p ->
      List.map (latency_ms p)
        (select p (fun i -> List.mem p.ops.(i).kind kinds && p.verdicts.(i) = Good)))
    r.phases

let everything = [ Detect; Sql; Append; Update ]

let run ~seed ~seconds ~traced =
  note "serve_mixed: generating tables and programs (seed %d)" seed;
  let tables =
    let p = Runtime.Pool.create ~size:2 () in
    Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown p) (fun () -> tables ~seed p)
  in
  busy_domains := pool;
  let rng phase = Random.State.make [| seed; phase |] in
  let quarter = seconds /. 4.0 in
  (* a sixth of the run per sweep keeps the daemon saturated for 2-4 s,
     enough for a capacity steady to a few percent; the rest goes to the
     fixed rate, whose median and tail need the samples more *)
  let sweep_s = seconds /. 6.0 in
  let step_s = sweep_s /. float_of_int (List.length ladder) in
  let sweep phase_id =
    let r =
      on_daemon tables ~rng:(rng phase_id) ~check:false
        ~plan:(fun pace -> [ List.map (fun rate -> (rate *. pace, step_s)) ladder ])
    in
    let p = List.hd r.phases in
    let steps = ladder_steps p ~step_s in
    note "serve_mixed: sweep saturated %.2f s, %d replies" p.result.Loadgen.saturated_s
      p.result.Loadgen.saturated_replies;
    (r, steps, capacity p steps)
  in
  (* the fixed rate runs in windows of [window_requests], with the
     machine's speed sampled between them *)
  let fixed phase_id ~length =
    on_daemon tables ~rng:(rng phase_id) ~check:true ~plan:(fun pace ->
        let rate = fixed_rate *. pace in
        let window_s = float_of_int window_requests /. rate in
        let n = max 1 (int_of_float (Float.round (length /. window_s))) in
        List.init n (fun _ -> [ (rate, window_s) ]))
  in
  (* untraced: sweep, fixed rate for two thirds of the time, sweep again;
     traced: sweep, untraced fixed, traced fixed, in-process replay *)
  let runs, sweeps, measured =
    if not traced then begin
      let ((a, _, _) as sa) = sweep 1 in
      let b = fixed 2 ~length:(seconds -. (2.0 *. sweep_s)) in
      let ((c, _, _) as sc) = sweep 3 in
      ([ a; b; c ], [ sa; sc ], b)
    end
    else begin
      let ((a, _, _) as sa) = sweep 1 in
      let b = fixed 2 ~length:quarter in
      let c =
        with_tracing (fun () ->
            let c = fixed 3 ~length:quarter in
            List.iter
              (fun p ->
                Array.iteri
                  (fun i op ->
                    let t0 = p.result.Loadgen.started in
                    record_span ("serve." ^ kind_name op.kind) (t0 +. p.dues.(i))
                      (t0 +. p.result.Loadgen.replied.(i)))
                  p.ops)
              c.phases;
            c)
      in
      ([ a; b; c ], [ sa ], c)
    end
  in
  let bad_in (r : run_on) ~allow_shed =
    List.fold_left
      (fun n p ->
        Array.fold_left
          (fun n v -> match v with Good | Unsent -> n | Shed when allow_shed -> n | Shed | Bad -> n + 1)
          n p.verdicts)
      0 r.phases
  in
  let checks = List.concat_map (fun r -> r.checks) runs in
  let failed =
    List.fold_left (fun n r -> n + bad_in r ~allow_shed:(r.checks = [])) 0 runs
    + List.length (List.filter (fun (ok, _) -> not ok) checks)
    + List.length
        (List.filter
           (fun r ->
             not
               (ingested_monotone
                  (Array.concat (List.map (fun p -> p.result.Loadgen.replies) r.phases))))
           runs)
  in
  let attempted =
    List.fold_left
      (fun n r ->
        List.fold_left
          (fun n p -> n + List.length (select p (fun i -> p.verdicts.(i) <> Unsent)))
          n r.phases)
      0 runs
    + List.length checks + List.length runs
  in
  print_digest "serve_mixed" (List.map snd checks);
  if not traced then begin
    (* times scaled to the reference speed (see [Common.speed]): the run's
       for the median and set-up; each window's or sweep's own for the
       tail and capacity, which a slow spell inside the run moves most *)
    let speed = speed () in
    let lat = List.map (fun t -> t *. speed) (latencies measured everything) in
    let block_maxima p =
      let scaled i = latency_ms p i *. reference_cal_s /. p.cal in
      List.init (Array.length p.ops / block_requests) (fun b ->
          List.fold_left
            (fun m i -> Float.max m (scaled i))
            0.0
            (select p (fun i -> i / block_requests = b && p.verdicts.(i) = Good)))
    in
    let sweep_capacity (r, _, c) = c *. (List.hd r.phases).cal /. reference_cal_s in
    { attempted; failed; reconciled = true;
      metrics =
        [ ("setup_s", speed *. median (List.map (fun r -> r.setup_s) runs));
          ("op_p50_ms", median lat);
          ("op_p99_ms",
           quantile (0.99 ** float_of_int block_requests)
             (List.concat_map block_maxima measured.phases));
          ("ops_per_s", mean (List.map sweep_capacity sweeps));
          ("peak_rss_mb", measured.rss_mb) ] }
  end
  else begin
    let service, replayed, replay_bad, reconciled =
      with_tracing (fun () ->
          replay tables (Array.concat (List.map (fun p -> p.ops) measured.phases)) ~seconds:quarter)
    in
    write_trace "serve_mixed";
    let base = List.nth runs 1 in
    let reads = latencies measured [ Detect; Sql ] in
    let writes = latencies measured [ Append; Update ] in
    let late =
      List.concat_map
        (fun p -> List.mapi (fun i due -> (p.result.Loadgen.sent.(i) -. due) *. 1e3) (Array.to_list p.dues))
        measured.phases
    in
    let shed, offered =
      List.fold_left
        (fun (s, o) r ->
          let s0, n0 = sheds r.stats0 and s1, n1 = sheds r.stats1 in
          (s + s1 - s0, o + n1 - n0 + s1 - s0))
        (0, 0) runs
    in
    let base_ms = mean (latencies base everything) in
    let _, steps, _ = List.hd sweeps in
    (* the ladder's own verdict: the highest rate (at the reference
       speed) up to which every step met the limit; 0 if the first missed *)
    let highest_met =
      let rec go best = function s :: rest when s.met -> go s.rate rest | _ -> best in
      go 0.0 steps
    in
    { attempted = attempted + replayed;
      failed = failed + replay_bad;
      reconciled;
      metrics =
        service
        @ [ ("service.transport_ms", mean reads -. read_execute_ms measured.stats0 measured.stats1);
            ("service.shed_ratio", ratio (float_of_int shed) (float_of_int offered));
            ("serve.read_p50_ms", median reads);
            ("serve.read_p99_ms", percentile 0.99 reads);
            ("serve.write_p50_ms", median writes);
            ("serve.write_p99_ms", percentile 0.99 writes);
            ("loadgen.late_ms_p99", percentile 0.99 late);
            ("loadgen.highest_met_rps", highest_met);
            ("trace.overhead_ratio", ratio (mean (latencies measured everything)) base_ms);
            ("trace.base_op_ms", base_ms) ]
        @ List.concat
            (List.mapi
               (fun k s ->
                 let step = Printf.sprintf "loadgen.step%d." (k + 1) in
                 [ (step ^ "backlog_start", float_of_int s.backlog_start);
                   (step ^ "backlog_end", float_of_int s.backlog_end);
                   (step ^ "read_p99_ms", s.read_p99_ms) ])
               steps) }
  end
