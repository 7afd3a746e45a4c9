(* The serving side of the benchmark: a `guardrail serve` child process
   and an open-loop load generator that drives it from one thread over
   a fixed set of connections.

   Open loop: every request has a due time fixed before the run starts
   and is sent then, whether or not earlier replies have arrived, so a
   stall in the daemon shows up as queueing in later requests. Latency
   is taken from the due time, and how late the generator itself sent
   each request is recorded separately. *)

open Common
module P = Service.Protocol

(* ------------------------------------------------------------------ *)
(* Daemon process *)

type daemon = { pid : int; socket : string; mutable conns : Unix.file_descr list }

let live : daemon list ref = ref []

let cli_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "guardrail_cli.exe")

let reap d =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) d.conns;
  d.conns <- [];
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  match Unix.waitpid [] d.pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* Whatever path the run takes, no daemon outlives the benchmark. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap d)
        !live)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* Start `guardrail serve --pool <pool>` on a unix socket under the run
   directory and open [n_conns] connections once it accepts them. *)
let start ~pool ~n_conns =
  ensure_run_dir ();
  let socket = Filename.concat run_dir "serve.sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let exe = cli_exe () in
  if not (Sys.file_exists exe) then failwith ("daemon binary not built: " ^ exe);
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--socket"; socket; "--pool"; string_of_int pool |]
          devnull Unix.stderr Unix.stderr)
  in
  let d = { pid; socket; conns = [] } in
  live := d :: !live;
  let deadline = now () +. 30.0 in
  let rec first () =
    match connect socket with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ when now () < deadline ->
         Unix.sleepf 0.005;
         first ()
       | 0, _ -> failwith "daemon did not start listening"
       | _ ->
         live := List.filter (fun x -> x.pid <> pid) !live;
         failwith "daemon exited at start")
  in
  let fd0 = first () in
  d.conns <- fd0 :: List.init (n_conns - 1) (fun _ -> connect socket);
  d

(* Blocking request/reply on an idle connection (set-up, checks, STATS). *)
let call fd req =
  Unix.clear_nonblock fd;
  P.write_frame fd (P.encode_request req);
  match P.read_frame fd with
  | Some payload -> P.decode_response payload
  | None -> failwith "daemon closed the connection"

let stop d =
  (match d.conns with
   | fd :: _ -> (
     match call fd (P.Request.shutdown ()) with
     | _ -> ()
     | exception (Failure _ | P.Error _ | Unix.Unix_error _) -> ())
   | [] -> ());
  reap d

(* ------------------------------------------------------------------ *)
(* Open-loop engine *)

type request = {
  due : float;            (* seconds after the schedule starts *)
  conn : int;
  framed : string;        (* the request, encoded and length-prefixed *)
}

type result = {
  sent : float array;     (* seconds after start; nan if never sent *)
  replied : float array;  (* seconds after start; nan if no reply *)
  replies : P.response option array;
  boundaries : (float * int) array;
      (* outstanding requests at each requested boundary time *)
  paused : bool;          (* sending waited on a deep backlog *)
  saturated_s : float;    (* time with at least [saturated_at] outstanding *)
  saturated_replies : int;  (* replies received in that time *)
  started : float;        (* wall-clock time of the schedule's start *)
}

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;               (* bytes not yet written *)
  mutable inbuf : string;       (* bytes read, not yet a whole frame *)
  pending : int Queue.t;        (* schedule indices awaiting a reply *)
}

let chunk = Bytes.create 65536

(* Split whole frames off the front of [c.inbuf]. *)
let rec frames c acc =
  let s = c.inbuf in
  let n = String.length s in
  if n < 4 then List.rev acc
  else begin
    let len =
      (Char.code s.[0] lsl 24) lor (Char.code s.[1] lsl 16)
      lor (Char.code s.[2] lsl 8) lor Char.code s.[3]
    in
    if n < 4 + len then List.rev acc
    else begin
      c.inbuf <- String.sub s (4 + len) (n - 4 - len);
      frames c (String.sub s 4 len :: acc)
    end
  end

(* Drive [schedule] (sorted by due time) over [fds]. Sending waits while
   [max_backlog] requests are outstanding, and once it has waited, stops
   at the last due time: requests still unsent then stay unsent. Replies
   are awaited until [drain_s] after the last due time. The time spent
   with at least [saturated_at] requests outstanding, and the replies
   received in it, give the daemon's service rate under overload. *)
let run ?(boundaries = [||]) ?(max_backlog = max_int) ?(saturated_at = max_int) ~drain_s fds
    (schedule : request array) =
  let n = Array.length schedule in
  let conns =
    Array.map
      (fun fd ->
        Unix.set_nonblock fd;
        { fd; out = Buffer.create 4096; inbuf = ""; pending = Queue.create () })
      fds
  in
  let sent = Array.make n Float.nan
  and replied = Array.make n Float.nan
  and replies = Array.make n None in
  let marks = Array.map (fun b -> (b, -1)) boundaries in
  let outstanding = ref 0 and next = ref 0 and paused = ref false in
  let saturated_s = ref 0.0 and saturated_replies = ref 0 in
  let level = ref 0 and last_t = ref 0.0 in
  let last_due = if n = 0 then 0.0 else schedule.(n - 1).due in
  let start = now () in
  let flush c =
    let s = Buffer.contents c.out in
    if s <> "" then begin
      let w =
        try Unix.single_write_substring c.fd s 0 (String.length s)
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
      in
      Buffer.clear c.out;
      Buffer.add_substring c.out s w (String.length s - w)
    end
  in
  let receive c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "daemon closed a load connection"
    | k ->
      c.inbuf <- c.inbuf ^ Bytes.sub_string chunk 0 k;
      let t = now () -. start in
      List.iter
        (fun payload ->
          let i = Queue.pop c.pending in
          replied.(i) <- t;
          replies.(i) <- Some (P.decode_response payload);
          if !outstanding >= saturated_at then incr saturated_replies;
          decr outstanding)
        (frames c [])
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let rec loop () =
    let t = now () -. start in
    if !level >= saturated_at then saturated_s := !saturated_s +. (t -. !last_t);
    last_t := t;
    Array.iteri
      (fun k (b, o) -> if o < 0 && t >= b then marks.(k) <- (b, !outstanding))
      marks;
    let open_ = (not !paused) || t <= last_due in
    if open_ && !next < n && schedule.(!next).due <= t && !outstanding >= max_backlog then
      paused := true;
    while open_ && !next < n && schedule.(!next).due <= t && !outstanding < max_backlog do
      let r = schedule.(!next) in
      let c = conns.(r.conn) in
      Buffer.add_string c.out r.framed;
      Queue.push !next c.pending;
      sent.(!next) <- now () -. start;
      incr outstanding;
      incr next
    done;
    Array.iter flush conns;
    level := !outstanding;
    let sending = open_ && !next < n in
    if (not sending) && !outstanding = 0 then ()
    else if (not sending) && t > last_due +. drain_s then ()
    else begin
      let wake =
        if sending && !outstanding < max_backlog then schedule.(!next).due -. t else 0.05
      in
      let wake =
        Array.fold_left
          (fun w (b, o) -> if o < 0 then Float.min w (b -. t) else w)
          wake marks
      in
      let writers =
        Array.fold_left
          (fun acc c -> if Buffer.length c.out > 0 then c.fd :: acc else acc)
          [] conns
      in
      let readable, _, _ =
        try
          Unix.select (Array.to_list fds) writers [] (Float.max 0.0 wake)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd -> Array.iter (fun c -> if c.fd = fd then receive c) conns)
        readable;
      loop ()
    end
  in
  loop ();
  (* A connection with replies still owed is out of step: callers
     reconnect before reusing it. *)
  {
    sent;
    replied;
    replies;
    boundaries = Array.map (fun (b, o) -> (b, max 0 (if o < 0 then !outstanding else o))) marks;
    paused = !paused;
    saturated_s = !saturated_s;
    saturated_replies = !saturated_replies;
    started = start;
  }

let all_answered r = Array.for_all Option.is_some r.replies
