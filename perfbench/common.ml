(* Shared pieces of the benchmark: clocks, order statistics, peak RSS,
   the benchmark's own span recorder, library counter deltas and the
   metric record every workload returns. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics *)

(* Nearest-rank percentile, [p] in [0, 1]; 0 on an empty sample. *)
let percentile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort Float.compare a;
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))
  end

(* The middle value, or the mean of the middle two. *)
let median xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort Float.compare a;
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  end

(* The [p]-quantile, linearly interpolated between order statistics. *)
let quantile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort Float.compare a;
    let h = p *. float_of_int (n - 1) in
    let k = int_of_float (Float.floor h) in
    let hi = min (n - 1) (k + 1) in
    a.(k) +. ((h -. float_of_int k) *. (a.(hi) -. a.(k)))
  end

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio num den = if den <= 0.0 then 0.0 else num /. den

(* ------------------------------------------------------------------ *)
(* Peak resident set size of a process, from /proc/<pid>/status *)

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
         | Some kb -> float_of_int kb /. 1024.0
         | None -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans: recorded around the calls it makes into
   each layer's public functions, never inside lib/. Off by default;
   while off, [span] only runs its argument. Spans are kept in memory
   and written out as a Chrome trace when the traced run ends. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let t0 = now () in
    let finish () =
      open_spans := List.tl !open_spans;
      spans := { id; parent; name; t0; t1 = now () } :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* Record an interval measured elsewhere (e.g. one request's due time
   to its reply) as a top-level span. *)
let record_span name t0 t1 =
  if !tracing then begin
    let id = !next_id in
    incr next_id;
    spans := { id; parent = -1; name; t0; t1 } :: !spans
  end

let with_tracing f =
  spans := [];
  open_spans := [];
  tracing := true;
  Fun.protect ~finally:(fun () -> tracing := false) f

let run_dir = ".perfbench"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

let write_trace workload =
  ensure_run_dir ();
  let base = List.fold_left (fun m s -> Float.min m s.t0) Float.infinity !spans in
  let event s =
    Obs.Json.Obj
      [ ("name", Obs.Json.Str s.name);
        ("ph", Obs.Json.Str "X");
        ("pid", Obs.Json.Num 1.0);
        ("tid", Obs.Json.Num 1.0);
        ("ts", Obs.Json.Num ((s.t0 -. base) *. 1e6));
        ("dur", Obs.Json.Num ((s.t1 -. s.t0) *. 1e6));
        ("args",
         Obs.Json.Obj
           [ ("id", Obs.Json.Num (float_of_int s.id));
             ("parent", Obs.Json.Num (float_of_int s.parent)) ]) ]
  in
  let oc = open_out (Filename.concat run_dir (workload ^ ".trace.json")) in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj [ ("traceEvents", Obs.Json.List (List.rev_map event !spans)) ]));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Counters the libraries already keep in [Obs.Metric.default] *)

let counters () = (Obs.Metric.snapshot Obs.Metric.default).Obs.Metric.counters

let counter_delta before after name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  float_of_int (get after - get before)

(* ------------------------------------------------------------------ *)
(* What one workload run reports *)

type outcome = {
  attempted : int;
  failed : int;   (* operations whose output check failed *)
  reconciled : bool;
      (* traced runs: per-layer times fit inside the end-to-end time *)
  metrics : (string * float) list;
}

(* Append a line to stderr: progress notes stay off the result stream. *)
let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Stable digest of a workload's outputs, printed once per run. *)
let print_digest workload parts =
  Printf.printf "digest %s %s\n%!" workload
    (Digest.to_hex (Digest.string (String.concat "\x00" parts)))

(* ------------------------------------------------------------------ *)
(* Machine speed

   Small shared VMs (2 vCPUs) change speed by up to half over seconds
   to minutes as neighbours take CPU, and a fixed CPU loop slows down
   with everything else. Timings are therefore taken
   as measured and scaled to a reference speed by the time of a fixed
   kernel sampled throughout the run: [t *. reference_cal_s /. cal].
   Over two minutes of guarded-SQL rounds the raw round time, per 10 s
   window, ranged over ±22% while the scaled one stayed within ±5%. *)

let calibration_input =
  lazy
    (let st = Random.State.make [| 42 |] in
     Array.init 10_000 (fun _ -> Random.State.bits st))

(* A fixed CPU- and memory-bound kernel: sort and hash a fixed
   pseudo-random array, on [domains] domains at once (a neighbour can
   take one of two cores while leaving the other alone, which a
   one-domain kernel would not see); best of two runs. *)
let calibrate ?(domains = 1) () =
  let kernel () =
    let a = Array.copy (Lazy.force calibration_input) in
    Array.sort Int.compare a;
    let h = Hashtbl.create 4096 in
    Array.iter (fun x -> Hashtbl.replace h (x land 0xffff) x) a
  in
  let once () =
    let t0 = now () in
    let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
    kernel ();
    List.iter Domain.join others;
    now () -. t0
  in
  ignore (Lazy.force calibration_input);
  let a = once () in
  Float.min a (once ())

(* [calibrate ()] on an unloaded 2-core machine of the kind the rates
   and limits here were sized for. *)
let reference_cal_s = 0.006

(* Calibration samples of the current run, taken at the boundaries of
   its passes, rounds and windows. *)
let cal_samples : float list ref = ref []

(* Domains the current workload keeps busy: the calibration kernel runs
   on as many. *)
let busy_domains = ref 1

(* Three samples, recorded for [speed] and returned. *)
let calibration_samples () =
  let s = List.init 3 (fun _ -> calibrate ~domains:!busy_domains ()) in
  cal_samples := s @ !cal_samples;
  s

let calibration_point () = ignore (calibration_samples ())

(* The factor scaling this run's times to the reference speed: one
   sample is noisy, the median over the run tracks the machine. *)
let speed () =
  calibration_point ();
  reference_cal_s /. median !cal_samples

(* Reset this process's peak RSS to its current RSS (Linux clear_refs). *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | oc -> (try output_string oc "5"; close_out oc with Sys_error _ -> close_out_noerr oc)
  | exception Sys_error _ -> ()
