(* Tests for the serving subsystem: protocol encode/decode round-trips
   (including truncated and oversized payload rejection), metrics, the
   compile-once registry, and a loopback
   integration test with concurrent clients checked against the offline
   Validator/Sqlexec results. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Validator = Guardrail.Validator
module P = Service.Protocol

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Protocol *)

let sample_requests : P.request list =
  [
    P.Ping;
    P.Load
      { table = "t"; csv = "a,b\n1,2\n"; program = Some "GIVEN a ON b HAVING;";
        model_label = Some "b" };
    P.Load { table = ""; csv = ""; program = None; model_label = None };
    P.Guard { table = "t"; program = "x" };
    P.Detect { table = "t"; csv = None };
    P.Detect { table = "t"; csv = Some "a,b\n1,2\n" };
    P.Rectify { table = "t"; strategy = Validator.Raise; csv = None };
    P.Rectify { table = "t"; strategy = Validator.Ignore; csv = Some "a\n1\n" };
    P.Rectify { table = "t"; strategy = Validator.Coerce; csv = None };
    P.Rectify { table = "t"; strategy = Validator.Rectify; csv = None };
    P.Sql { query = "SELECT * FROM t"; guard_table = None };
    P.Sql { query = "SELECT 1"; guard_table = Some "t" };
    P.Tables;
    P.Stats;
    P.Shutdown;
    P.Trace { enable = true };
    P.Trace { enable = false };
    P.Append { table = "t"; csv = "a,b\n3,4\n" };
    P.Append { table = ""; csv = "" };
    P.Update { table = "t"; cells = [ (0, "a", "9"); (2, "b", "x") ] };
    P.Update { table = "t"; cells = [] };
    P.Refresh { table = "t" };
  ]

let sample_responses : P.response list =
  [
    P.Ok_reply "pong";
    P.Ok_reply "";
    P.Loaded { table = "t"; rows = 12345; statements = 7 };
    P.Detections { flags = [| true; false; true |]; violations = 2 };
    P.Detections { flags = [||]; violations = 0 };
    P.Rectified { csv = "a,b\n1,2\n"; violations = 3 };
    P.Sql_result
      { columns = [ "a"; "n" ]; csv = "a,n\nx,3\n"; rows = 1; violations = 2;
        guardrail_ms = 0.25; inference_ms = 1.5 };
    P.Table_list
      [
        { P.name = "t"; rows = 10; columns = 3; has_program = true;
          has_model = false };
        { P.name = "u"; rows = 0; columns = 0; has_program = false;
          has_model = true };
      ];
    P.Table_list [];
    P.Stats_reply
      { uptime_s = 1.5; connections = 4; served = 9;
        commands =
          [
            { P.command = "DETECT"; count = 3; errors = 1; mean_ms = 0.5;
              max_ms = 2.0 };
          ];
        rendered = "ok\n" };
    P.Shutting_down;
    P.Error_reply "boom";
    P.Busy_reply;
    P.Ingested { table = "t"; rows = 4; total_rows = 104; epoch = 2 };
    P.Refreshed
      { table = "t"; checked = 3; stale = [ "viol:GIVEN a ON b" ];
        refreshed = 1; dropped = 0 };
    P.Refreshed { table = "t"; checked = 0; stale = []; refreshed = 0;
                  dropped = 0 };
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let r' = P.decode_request (P.encode_request r) in
      Alcotest.(check bool)
        (Printf.sprintf "request %s round-trips" (P.request_command r))
        true (r = r'))
    sample_requests

let test_response_roundtrip () =
  List.iteri
    (fun i r ->
      let r' = P.decode_response (P.encode_response r) in
      Alcotest.(check bool) (Printf.sprintf "response %d round-trips" i) true
        (r = r'))
    sample_responses

let expect_protocol_error f =
  match f () with
  | exception P.Error _ -> true
  | _ -> false

let test_truncated_rejected () =
  (* every proper prefix of every encoding must raise, not crash or
     misparse *)
  List.iter
    (fun r ->
      let full = P.encode_request r in
      for len = 0 to String.length full - 1 do
        let cut = String.sub full 0 len in
        Alcotest.(check bool)
          (Printf.sprintf "%s truncated at %d rejected" (P.request_command r)
             len)
          true
          (expect_protocol_error (fun () -> P.decode_request cut))
      done)
    sample_requests;
  List.iter
    (fun r ->
      let full = P.encode_response r in
      for len = 0 to String.length full - 1 do
        let cut = String.sub full 0 len in
        Alcotest.(check bool) "response truncated rejected" true
          (expect_protocol_error (fun () -> P.decode_response cut))
      done)
    sample_responses

let test_trailing_bytes_rejected () =
  let payload = P.encode_request P.Ping ^ "x" in
  Alcotest.(check bool) "trailing bytes rejected" true
    (expect_protocol_error (fun () -> P.decode_request payload))

let test_bad_version_and_tag () =
  Alcotest.(check bool) "version 0 rejected" true
    (expect_protocol_error (fun () -> P.decode_request "\x00\x01"));
  Alcotest.(check bool) "unknown request tag rejected" true
    (expect_protocol_error (fun () -> P.decode_request "\x01\xff"));
  Alcotest.(check bool) "unknown response tag rejected" true
    (expect_protocol_error (fun () -> P.decode_response "\x01\xff"))

(* Byte-for-byte goldens for every wire tag that predates the codec
   table: the hex strings were captured from the encoder BEFORE the
   encode/decode paths were folded into one table, so these prove the
   refactor changed no bytes. New tags (APPEND/UPDATE/REFRESH,
   INGESTED/REFRESHED) are covered by round-trips + truncation, not
   goldens — they never had a previous shape to preserve. *)

let hex_of_string s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.of_seq (String.to_seq s) |> List.map Char.code))

let string_of_hex h =
  String.init
    (String.length h / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let request_goldens : (string * P.request) list =
  [
    ("0101", P.Ping);
    ( "0102000000017400000008612c620a312c320a0100000007474956454e206100",
      P.Load
        { table = "t"; csv = "a,b\n1,2\n"; program = Some "GIVEN a";
          model_label = None } );
    ( "010300000001740000000c474956454e2061204f4e2062",
      P.Guard { table = "t"; program = "GIVEN a ON b" } );
    ("010400000001740100000004610a310a",
     P.Detect { table = "t"; csv = Some "a\n1\n" });
    ("010500000001740200",
     P.Rectify { table = "t"; strategy = Validator.Coerce; csv = None });
    ( "01060000000f53454c454354202a2046524f4d2074010000000174",
      P.Sql { query = "SELECT * FROM t"; guard_table = Some "t" } );
    ("0107", P.Tables);
    ("0108", P.Stats);
    ("0109", P.Shutdown);
    ("010a01", P.Trace { enable = true });
  ]

let response_goldens : (string * P.response) list =
  [
    ("0101000000026f6b", P.Ok_reply "ok");
    ("010200000001740000000300000002",
     P.Loaded { table = "t"; rows = 3; statements = 2 });
    ( "01030000000301000100000002",
      P.Detections { flags = [| true; false; true |]; violations = 2 } );
    ("010400000004610a310a00000001",
     P.Rectified { csv = "a\n1\n"; violations = 1 });
    ( "0105000000020000000161000000016200000008612c620a312c320a00000001000000\
       003ff80000000000003fd0000000000000",
      P.Sql_result
        { columns = [ "a"; "b" ]; csv = "a,b\n1,2\n"; rows = 1; violations = 0;
          guardrail_ms = 1.5; inference_ms = 0.25 } );
    ( "010600000001000000017400000002000000030100",
      P.Table_list
        [ { P.name = "t"; rows = 2; columns = 3; has_program = true;
            has_model = false } ] );
    ( "010740000000000000000000000100000004000000010000000450494e470000000400\
       0000003fe00000000000003ff00000000000000000000172",
      P.Stats_reply
        { uptime_s = 2.0; connections = 1; served = 4;
          commands =
            [ { P.command = "PING"; count = 4; errors = 0; mean_ms = 0.5;
                max_ms = 1.0 } ];
          rendered = "r" } );
    ("0108", P.Shutting_down);
    ("010900000004626f6f6d", P.Error_reply "boom");
    ("010a", P.Busy_reply);
  ]

let test_request_golden_bytes () =
  List.iter
    (fun (hex, r) ->
      Alcotest.(check string)
        (Printf.sprintf "%s encodes to its pre-refactor bytes"
           (P.request_command r))
        hex
        (hex_of_string (P.encode_request r));
      Alcotest.(check bool)
        (Printf.sprintf "%s decodes from its pre-refactor bytes"
           (P.request_command r))
        true
        (P.decode_request (string_of_hex hex) = r))
    request_goldens

let test_response_golden_bytes () =
  List.iter
    (fun (hex, r) ->
      Alcotest.(check string) "response encodes to its pre-refactor bytes" hex
        (hex_of_string (P.encode_response r));
      Alcotest.(check bool) "response decodes from its pre-refactor bytes" true
        (P.decode_response (string_of_hex hex) = r))
    response_goldens

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  P.write_frame a "hello";
  P.write_frame a "";
  Alcotest.(check (option string)) "frame 1" (Some "hello") (P.read_frame b);
  Alcotest.(check (option string)) "frame 2" (Some "") (P.read_frame b);
  Unix.close a;
  Alcotest.(check (option string)) "clean EOF" None (P.read_frame b);
  Unix.close b

let test_oversized_frame_rejected () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  P.write_frame a "0123456789";
  Alcotest.(check bool) "over-limit frame rejected" true
    (expect_protocol_error (fun () -> P.read_frame ~max_bytes:5 b));
  Unix.close a;
  Unix.close b

let test_truncated_frame_rejected () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* length prefix promises 100 bytes, peer dies after 3 *)
  let n = Unix.write_substring a "\x00\x00\x00\x64abc" 0 7 in
  Alcotest.(check int) "wrote header + 3" 7 n;
  Unix.close a;
  Alcotest.(check bool) "mid-frame EOF rejected" true
    (expect_protocol_error (fun () -> P.read_frame b));
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counts () =
  let m = Service.Metrics.create () in
  Service.Metrics.connection m;
  Service.Metrics.connection m;
  Service.Metrics.record m ~command:"DETECT" ~ok:true ~seconds:0.002;
  Service.Metrics.record m ~command:"DETECT" ~ok:false ~seconds:0.2;
  Service.Metrics.record m ~command:"SQL" ~ok:true ~seconds:0.0005;
  let s = Service.Metrics.snapshot m in
  Alcotest.(check int) "connections" 2 s.Service.Metrics.connections;
  Alcotest.(check int) "served" 3 s.Service.Metrics.served;
  let detect =
    List.find
      (fun c -> c.Service.Metrics.command = "DETECT")
      s.Service.Metrics.commands
  in
  Alcotest.(check int) "detect count" 2 detect.Service.Metrics.count;
  Alcotest.(check int) "detect errors" 1 detect.Service.Metrics.errors;
  Alcotest.(check int) "histogram total" 2
    (Array.fold_left ( + ) 0 detect.Service.Metrics.buckets);
  let rendered = Service.Metrics.render s in
  Alcotest.(check bool) "render mentions DETECT" true
    (contains ~needle:"DETECT" rendered)

(* Byte-level golden for the STATS wire reply: the expected bytes are
   re-derived here from the documented wire format (version u8, tag u8,
   then the fields in declaration order), so any change to the encoding
   — field order, primitive widths, the version byte — fails loudly.
   Metrics moved onto the Obs registry; the reply must not move. *)
let test_stats_reply_golden_bytes () =
  let reply =
    P.Stats_reply
      { uptime_s = 1.5; connections = 4; served = 9;
        commands =
          [
            { P.command = "DETECT"; count = 3; errors = 1; mean_ms = 0.5;
              max_ms = 2.0 };
          ];
        rendered = "ok\n" }
  in
  let expected =
    let buf = Buffer.create 64 in
    let u8 v = Buffer.add_char buf (Char.chr v) in
    let u32 v =
      u8 ((v lsr 24) land 0xff);
      u8 ((v lsr 16) land 0xff);
      u8 ((v lsr 8) land 0xff);
      u8 (v land 0xff)
    in
    let f64 v =
      let bits = Int64.bits_of_float v in
      for i = 7 downto 0 do
        u8 (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
      done
    in
    let str s =
      u32 (String.length s);
      Buffer.add_string buf s
    in
    u8 1 (* version *);
    u8 7 (* Stats_reply tag *);
    f64 1.5;
    u32 4 (* connections *);
    u32 9 (* served *);
    u32 1 (* one command stat *);
    str "DETECT";
    u32 3;
    u32 1;
    f64 0.5;
    f64 2.0;
    str "ok\n";
    Buffer.contents buf
  in
  Alcotest.(check string) "Stats_reply bytes are stable" expected
    (P.encode_response reply)

(* Golden render: the STATS text body is part of the wire contract. *)
let test_metrics_render_golden () =
  let s =
    {
      Service.Metrics.uptime_s = 12.3;
      connections = 2;
      protocol_errors = 1;
      served = 3;
      sheds = 4;
      inflight_peak = 5;
      commands =
        [
          {
            Service.Metrics.command = "DETECT";
            count = 2;
            errors = 1;
            total_s = 0.202;
            max_s = 0.2;
            buckets = [| 0; 0; 0; 1; 0; 0; 0; 1; 0; 0 |];
          };
        ];
    }
  in
  Alcotest.(check string) "render text is stable"
    ("uptime 12.3s, 2 connection(s), 3 request(s) served, 1 protocol \
      error(s), 4 shed, peak inflight 5\n"
   ^ "DETECT         2 req     1 err  mean  101.00ms  max  200.00ms\n"
   ^ "          latency: <=3ms:1 <=300ms:1\n")
    (Service.Metrics.render s)

(* ------------------------------------------------------------------ *)
(* Registry *)

let people_csv =
  "name,dept,grade\nann,eng,senior\nbob,eng,junior\ncat,ops,senior\n"

let people_program = "GIVEN dept ON grade HAVING\n  IF dept = \"eng\" THEN grade <- \"senior\";\n"

let test_registry_load_find () =
  let reg = Service.Registry.create () in
  let frame = Dataframe.Csv.of_string people_csv in
  let entry =
    Service.Registry.load reg ~name:"people" ~program:people_program frame
  in
  Alcotest.(check bool) "program compiled" true
    (entry.Service.Registry.program <> None);
  (match Service.Registry.find reg "people" with
   | None -> Alcotest.fail "table not found after load"
   | Some found ->
     (* the compiled program is the SAME object on every lookup — compiled
        once at load, never per request *)
     (match (found.Service.Registry.program, entry.Service.Registry.program) with
      | Some a, Some b ->
        Alcotest.(check bool) "compilation shared" true
          (a.Service.Registry.compiled == b.Service.Registry.compiled)
      | _ -> Alcotest.fail "program missing"));
  Alcotest.(check int) "count" 1 (Service.Registry.count reg);
  Service.Registry.remove reg "people";
  Alcotest.(check int) "removed" 0 (Service.Registry.count reg)

let test_registry_set_program () =
  let reg = Service.Registry.create () in
  let frame = Dataframe.Csv.of_string people_csv in
  let (_ : Service.Registry.entry) =
    Service.Registry.load reg ~name:"people" frame
  in
  let entry = Service.Registry.set_program reg ~name:"people" people_program in
  Alcotest.(check bool) "program installed" true
    (entry.Service.Registry.program <> None);
  Alcotest.(check bool) "unknown table raises Not_found" true
    (match Service.Registry.set_program reg ~name:"ghost" people_program with
     | exception Not_found -> true
     | _ -> false);
  Alcotest.(check bool) "bad program raises Parse.Error" true
    (match Service.Registry.set_program reg ~name:"people" "GIVEN nope ON" with
     | exception Guardrail.Parse.Error _ -> true
     | _ -> false)

let test_registry_sharded () =
  let reg = Service.Registry.create ~shards:4 () in
  Alcotest.(check int) "shard_count" 4 (Service.Registry.shard_count reg);
  (* names spread across shards; count/list fold over all of them *)
  let names = List.init 20 (Printf.sprintf "table%02d") in
  List.iter
    (fun name ->
      let (_ : Service.Registry.entry) =
        Service.Registry.load reg ~name (Dataframe.Csv.of_string people_csv)
      in
      ())
    names;
  Alcotest.(check int) "count over shards" 20 (Service.Registry.count reg);
  Alcotest.(check (list string)) "list is name-sorted over shards" names
    (List.map fst (Service.Registry.list reg));
  Alcotest.(check bool) "shards must be >= 1" true
    (match Service.Registry.create ~shards:0 () with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* An entry handle is an immutable snapshot: replacing the table behind
   it must not disturb the frame/program the handle pins — exactly what
   a worker mid-request relies on while another client re-loads. *)
let test_registry_snapshot_across_replace () =
  let reg = Service.Registry.create ~shards:2 () in
  let frame = Dataframe.Csv.of_string people_csv in
  let handle =
    Service.Registry.load reg ~name:"people" ~program:people_program frame
  in
  let violations flags =
    Array.fold_left (fun n b -> if b then n + 1 else n) 0 flags
  in
  let expected =
    match handle.Service.Registry.program with
    | Some p -> violations (Validator.detect p.Service.Registry.compiled frame)
    | None -> Alcotest.fail "program missing at load"
  in
  let replacer =
    Domain.spawn (fun () ->
        for _ = 1 to 50 do
          let fresh = Dataframe.Csv.of_string "name,dept,grade\nzed,ops,junior\n" in
          ignore (Service.Registry.load reg ~name:"people" fresh)
        done)
  in
  (* the handle keeps answering from its pinned compilation throughout *)
  for _ = 1 to 50 do
    Alcotest.(check bool) "handle frame pinned" true (handle.Service.Registry.frame == frame);
    match handle.Service.Registry.program with
    | None -> Alcotest.fail "handle lost its program"
    | Some p ->
      let flags = Validator.detect p.Service.Registry.compiled frame in
      Alcotest.(check int) "handle detect stable" expected (violations flags)
  done;
  Domain.join replacer;
  (* the table itself now shows the replacement *)
  match Service.Registry.find reg "people" with
  | Some e ->
    Alcotest.(check int) "replacement visible" 1
      (Frame.nrows e.Service.Registry.frame)
  | None -> Alcotest.fail "table vanished"

(* ------------------------------------------------------------------ *)
(* Server dispatch (no socket) *)

let make_server () =
  let reg = Service.Registry.create () in
  Service.Server.create reg

let test_dispatch_errors () =
  let srv = make_server () in
  (match Service.Server.handle_request srv (P.Detect { table = "ghost"; csv = None }) with
   | P.Error_reply msg ->
     Alcotest.(check bool) "mentions table" true (contains ~needle:"ghost" msg)
   | _ -> Alcotest.fail "expected error reply");
  (match
     Service.Server.handle_request srv
       (P.Load { table = "t"; csv = "not,a\ncsv"; program = None; model_label = None })
   with
   | P.Error_reply _ -> ()
   | _ -> Alcotest.fail "ragged csv should error");
  (* a table without a program cannot serve DETECT *)
  (match
     Service.Server.handle_request srv
       (P.Load { table = "t"; csv = people_csv; program = None; model_label = None })
   with
   | P.Loaded { rows = 3; _ } -> ()
   | _ -> Alcotest.fail "load failed");
  match Service.Server.handle_request srv (P.Detect { table = "t"; csv = None }) with
  | P.Error_reply _ -> ()
  | _ -> Alcotest.fail "detect without program should error"

let test_dispatch_detect_matches_offline () =
  let srv = make_server () in
  (match
     Service.Server.handle_request srv
       (P.Load
          { table = "people"; csv = people_csv; program = Some people_program;
            model_label = None })
   with
   | P.Loaded { statements = 1; _ } -> ()
   | _ -> Alcotest.fail "load failed");
  let frame = Dataframe.Csv.of_string people_csv in
  let prog = Guardrail.Parse.prog (Frame.schema frame) people_program in
  let offline = Validator.detect (Validator.compile prog) frame in
  match Service.Server.handle_request srv (P.Detect { table = "people"; csv = None }) with
  | P.Detections { flags; violations } ->
    Alcotest.(check bool) "flags match offline" true (flags = offline);
    Alcotest.(check int) "violations"
      (Array.fold_left (fun n b -> if b then n + 1 else n) 0 offline)
      violations
  | _ -> Alcotest.fail "expected detections"

(* Each table's PREDICT answers with the model trained on that table:
   [b]'s label is the negation of [a]'s, and loading [b] after [a] must
   not change what a query over [a] predicts. *)
let test_dispatch_model_per_table () =
  let srv = make_server () in
  let table_csv ~negate =
    "x,y,label\n"
    ^ String.concat ""
        (List.init 40 (fun i ->
             let x = i mod 2 in
             Printf.sprintf "%d,%d,%s\n" x (i / 2 mod 2)
               (if (x = 1) <> negate then "yes" else "no")))
  in
  let load table ~negate =
    match
      Service.Server.handle_request srv
        (P.Load
           { table; csv = table_csv ~negate; program = None; model_label = Some "label" })
    with
    | P.Loaded { rows = 40; _ } -> ()
    | _ -> Alcotest.failf "load %s failed" table
  in
  let predict table =
    let query =
      Printf.sprintf "SELECT x, PREDICT(label) FROM %s WHERE y = 0 LIMIT 2" table
    in
    match Service.Server.handle_request srv (P.Sql { query; guard_table = None }) with
    | P.Sql_result { csv; _ } -> csv
    | P.Error_reply msg -> Alcotest.fail msg
    | _ -> Alcotest.fail "expected an SQL result"
  in
  load "a" ~negate:false;
  let before = predict "a" in
  Alcotest.(check string) "a's own model" "x,label_pred\n0,no\n1,yes\n" before;
  load "b" ~negate:true;
  Alcotest.(check string) "a after loading b" before (predict "a");
  Alcotest.(check string) "b's own model" "x,label_pred\n0,yes\n1,no\n" (predict "b")

(* ------------------------------------------------------------------ *)
(* Loopback integration: daemon + concurrent clients vs offline results *)

let loopback = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)

let start_server ?(pool_size = 4) ?config registry =
  let config =
    match config with
    | Some c -> c
    | None -> Service.Server.Config.make ~pool_size ~read_timeout_s:10.0 ()
  in
  let server = Service.Server.create ~config registry in
  let addr = Service.Server.bind server loopback in
  let runner = Domain.spawn (fun () -> Service.Server.run server) in
  (server, addr, runner)

(* a datagen dataset, its synthesized program, and injected errors — the
   acceptance scenario *)
let integration_fixture =
  lazy
    (let spec = Datagen.Spec.by_id 2 in
     let built, clean = Datagen.Generate.small_dataset ~n_rows:1500 spec in
     let synth = Guardrail.Synthesize.run clean in
     let program = synth.Guardrail.Synthesize.program in
     let injection =
       Datagen.Corrupt.inject_constrained ~seed:42 ~n_errors:30 built clean
     in
     let frame = injection.Datagen.Corrupt.corrupted in
     (frame, program, Guardrail.Pretty.prog_to_string program))

let sql_query = "SELECT smoker, COUNT(*) AS n FROM data GROUP BY smoker ORDER BY smoker"

let test_loopback_concurrent_clients () =
  let frame, program, program_text = Lazy.force integration_fixture in
  (* offline ground truth *)
  let offline_flags = Validator.detect (Validator.compile program) frame in
  let offline_violations =
    Array.fold_left (fun n b -> if b then n + 1 else n) 0 offline_flags
  in
  Alcotest.(check bool) "fixture has violations" true (offline_violations > 0);
  let offline_sql =
    let ctx = Sqlexec.Exec.create () in
    Sqlexec.Exec.register_table ctx "data" frame;
    Sqlexec.Exec.run ctx sql_query
  in
  let registry = Service.Registry.create () in
  let (_ : Service.Registry.entry) =
    Service.Registry.load registry ~name:"data" ~program:program_text frame
  in
  let server, addr, runner = start_server ~pool_size:4 registry in
  let n_clients = 4 in
  let run_client () =
    Service.Client.with_connection addr (fun c ->
        let detections =
          match
            Service.Client.call_exn c (P.Detect { table = "data"; csv = None })
          with
          | P.Detections { flags; violations } -> (flags, violations)
          | _ -> failwith "expected detections"
        in
        let sql =
          match
            Service.Client.call_exn c
              (P.Sql { query = sql_query; guard_table = None })
          with
          | P.Sql_result { columns; csv; rows; _ } -> (columns, csv, rows)
          | _ -> failwith "expected sql result"
        in
        (detections, sql))
  in
  let domains = List.init n_clients (fun _ -> Domain.spawn run_client) in
  let results = List.map Domain.join domains in
  (* every client saw exactly the offline answers *)
  List.iter
    (fun (((flags, violations), (columns, csv, rows)) :
           (bool array * int) * (string list * string * int)) ->
      Alcotest.(check bool) "DETECT flags = offline Validator.detect" true
        (flags = offline_flags);
      Alcotest.(check int) "DETECT violation count" offline_violations violations;
      Alcotest.(check (list string)) "SQL columns = offline Exec.run"
        offline_sql.Sqlexec.Exec.columns columns;
      Alcotest.(check int) "SQL row count"
        (List.length offline_sql.Sqlexec.Exec.rows)
        rows;
      (* the transported CSV reproduces the offline rows exactly *)
      let parsed = Dataframe.Csv.of_string csv in
      Alcotest.(check int) "SQL csv rows" (List.length offline_sql.Sqlexec.Exec.rows)
        (Frame.nrows parsed);
      List.iteri
        (fun i offline_row ->
          Array.iteri
            (fun j v ->
              Alcotest.(check string)
                (Printf.sprintf "SQL cell (%d,%d)" i j)
                (Value.to_string v)
                (Value.to_string (Frame.get parsed i j)))
            offline_row)
        offline_sql.Sqlexec.Exec.rows)
    results;
  (* STATS agrees with what the clients sent *)
  Service.Client.with_connection addr (fun c ->
      match Service.Client.call_exn c P.Stats with
      | P.Stats_reply { commands; connections; _ } ->
        let count name =
          match List.find_opt (fun s -> s.P.command = name) commands with
          | Some s -> s.P.count
          | None -> 0
        in
        Alcotest.(check int) "DETECT count" n_clients (count "DETECT");
        Alcotest.(check int) "SQL count" n_clients (count "SQL");
        Alcotest.(check int) "no errors" 0
          (List.fold_left (fun n s -> n + s.P.errors) 0 commands);
        Alcotest.(check bool) "connections >= clients" true
          (connections >= n_clients)
      | _ -> Alcotest.fail "expected stats");
  Service.Server.stop server;
  Domain.join runner

let test_loopback_malformed_keeps_serving () =
  let registry = Service.Registry.create () in
  let server, addr, runner = start_server ~pool_size:2 registry in
  (* raw garbage payload inside a valid frame: the server must answer with
     an error and keep the connection serving *)
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  P.write_frame fd "\xde\xad\xbe\xef";
  (match P.read_frame fd with
   | Some payload ->
     (match P.decode_response payload with
      | P.Error_reply _ -> ()
      | _ -> Alcotest.fail "expected error reply to garbage")
   | None -> Alcotest.fail "connection died on garbage");
  (* same connection still works *)
  P.write_frame fd (P.encode_request P.Ping);
  (match P.read_frame fd with
   | Some payload ->
     (match P.decode_response payload with
      | P.Ok_reply "pong" -> ()
      | _ -> Alcotest.fail "expected pong after garbage")
   | None -> Alcotest.fail "connection died after garbage");
  Unix.close fd;
  (* a fresh client also still works *)
  Service.Client.with_connection addr (fun c ->
      match Service.Client.call_exn c P.Ping with
      | P.Ok_reply "pong" -> ()
      | _ -> Alcotest.fail "server wedged after malformed request");
  let stats = Service.Metrics.snapshot (Service.Server.metrics server) in
  Alcotest.(check bool) "protocol error counted" true
    (stats.Service.Metrics.protocol_errors >= 1);
  Service.Server.stop server;
  Domain.join runner

let test_loopback_shutdown_drains () =
  let registry = Service.Registry.create () in
  let frame = Dataframe.Csv.of_string people_csv in
  let (_ : Service.Registry.entry) =
    Service.Registry.load registry ~name:"people" ~program:people_program frame
  in
  let server, addr, runner = start_server ~pool_size:2 registry in
  (* park some requests, then shut down via the protocol *)
  Service.Client.with_connection addr (fun c ->
      (match Service.Client.call_exn c (P.Detect { table = "people"; csv = None }) with
       | P.Detections _ -> ()
       | _ -> Alcotest.fail "detect failed");
      match Service.Client.call_exn c P.Shutdown with
      | P.Shutting_down -> ()
      | _ -> Alcotest.fail "expected Shutting_down");
  (* run returns: accept loop stopped and pool drained *)
  Domain.join runner;
  ignore server;
  (* the endpoint is really gone *)
  Alcotest.(check bool) "connection refused after shutdown" true
    (match Service.Client.connect addr with
     | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true
     | c ->
       Service.Client.close c;
       false)

let test_unix_domain_socket () =
  let path = Filename.temp_file "guardrail" ".sock" in
  Unix.unlink path;
  let registry = Service.Registry.create () in
  let config = Service.Server.Config.make ~pool_size:1 () in
  let server = Service.Server.create ~config registry in
  let (_ : Unix.sockaddr) = Service.Server.bind server (Unix.ADDR_UNIX path) in
  let runner = Domain.spawn (fun () -> Service.Server.run server) in
  let c = Service.Client.connect_unix path in
  (match Service.Client.call_exn c P.Ping with
   | P.Ok_reply "pong" -> ()
   | _ -> Alcotest.fail "unix socket ping failed");
  Service.Client.close c;
  Service.Server.stop server;
  Domain.join runner;
  Alcotest.(check bool) "socket file removed on shutdown" false
    (Sys.file_exists path)

(* TRACE lifecycle over the loopback: start, serve a spanned request,
   stop and get back parseable Chrome JSON naming the command. *)
let test_loopback_trace () =
  let frame, _, program_text = Lazy.force integration_fixture in
  let registry = Service.Registry.create () in
  let (_ : Service.Registry.entry) =
    Service.Registry.load registry ~name:"data" ~program:program_text frame
  in
  let server, addr, runner = start_server ~pool_size:2 registry in
  Service.Client.with_connection addr (fun c ->
      let expect_server_error what f =
        match f () with
        | exception Service.Client.Server_error _ -> ()
        | _ -> Alcotest.fail what
      in
      (* stopping before starting is an error *)
      expect_server_error "trace-stop without trace-start should error"
        (fun () -> Service.Client.call_exn c (P.Trace { enable = false }));
      (match Service.Client.call_exn c (P.Trace { enable = true }) with
       | P.Ok_reply _ -> ()
       | _ -> Alcotest.fail "trace-start failed");
      (* double start is an error, and must not clobber the collector *)
      expect_server_error "second trace-start should error" (fun () ->
          Service.Client.call_exn c (P.Trace { enable = true }));
      (match
         Service.Client.call_exn c (P.Detect { table = "data"; csv = None })
       with
       | P.Detections _ -> ()
       | _ -> Alcotest.fail "detect failed");
      match Service.Client.call_exn c (P.Trace { enable = false }) with
      | P.Ok_reply json ->
        let events = Obs.Trace.events_of_chrome_json json in
        Alcotest.(check bool) "trace has a DETECT span" true
          (List.exists
             (fun (e : Obs.Collector.event) -> e.Obs.Collector.name = "DETECT")
             events);
        Alcotest.(check bool) "trace has no TRACE span" false
          (List.exists
             (fun (e : Obs.Collector.event) -> e.Obs.Collector.name = "TRACE")
             events)
      | _ -> Alcotest.fail "trace-stop failed");
  Service.Server.stop server;
  Domain.join runner

(* ------------------------------------------------------------------ *)
(* Event loop: incremental framing, pipelining, admission control *)

let test_config_validation () =
  Alcotest.(check bool) "pool_size 0 rejected" true
    (match Service.Server.Config.make ~pool_size:0 () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "negative timeout rejected" true
    (match Service.Server.Config.make ~read_timeout_s:(-1.0) () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "max_inflight 0 rejected" true
    (match Service.Server.Config.make ~max_inflight:0 () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  let c = Service.Server.Config.make ~pool_size:2 ~max_inflight:7 () in
  Alcotest.(check int) "pool_size" 2 c.Service.Server.Config.pool_size;
  Alcotest.(check int) "max_inflight" 7 c.Service.Server.Config.max_inflight

(* A request frame delivered one byte per write: the loop must assemble
   it across chunk boundaries and answer normally. *)
let test_split_frames_byte_by_byte () =
  let registry = Service.Registry.create () in
  let server, addr, runner = start_server ~pool_size:1 registry in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  let frame = Service.Protocol.frame (P.encode_request P.Ping) in
  String.iteri
    (fun i _ ->
      let (_ : int) = Unix.write_substring fd frame i 1 in
      (* give the event loop a chance to observe every fragment alone *)
      if i land 1 = 0 then Unix.sleepf 0.001)
    frame;
  (match P.read_frame fd with
   | Some payload ->
     (match P.decode_response payload with
      | P.Ok_reply "pong" -> ()
      | _ -> Alcotest.fail "expected pong from split frame")
   | None -> Alcotest.fail "connection died on split frame");
  (* two frames concatenated with the second cut mid-payload: the first
     must be answered while the tail waits for its missing bytes *)
  let two = frame ^ frame in
  let cut = String.length frame + 3 in
  let (_ : int) = Unix.write_substring fd two 0 cut in
  (match P.read_frame fd with
   | Some payload ->
     (match P.decode_response payload with
      | P.Ok_reply "pong" -> ()
      | _ -> Alcotest.fail "expected pong for the complete head frame")
   | None -> Alcotest.fail "connection died on partial tail");
  let (_ : int) =
    Unix.write_substring fd two cut (String.length two - cut)
  in
  (match P.read_frame fd with
   | Some payload ->
     (match P.decode_response payload with
      | P.Ok_reply "pong" -> ()
      | _ -> Alcotest.fail "expected pong once the tail completed")
   | None -> Alcotest.fail "connection died completing the tail");
  Unix.close fd;
  Service.Server.stop server;
  Domain.join runner

(* Streaming ingest over the wire: APPEND grows the table (epoch bumps,
   DETECT serves the new rows immediately), UPDATE edits cells in
   place, REFRESH reports the drift monitor's verdict, and an unknown
   table comes back as an error reply, not a dead connection. *)
let test_loopback_ingest () =
  let registry = Service.Registry.create () in
  let server, addr, runner = start_server registry in
  Service.Client.with_connection addr (fun c ->
      (match
         Service.Client.call_exn c
           (P.Request.load ~table:"people" ~csv:people_csv
              ~program:people_program ())
       with
       | P.Loaded { rows; _ } -> Alcotest.(check int) "loaded rows" 3 rows
       | _ -> Alcotest.fail "expected Loaded");
      (match
         Service.Client.call_exn c
           (P.Request.append ~table:"people"
              ~csv:"name,dept,grade\ndan,eng,senior\neve,ops,junior\n")
       with
       | P.Ingested { table; rows; total_rows; epoch } ->
         Alcotest.(check string) "appended table" "people" table;
         Alcotest.(check int) "delta rows" 2 rows;
         Alcotest.(check int) "total rows" 5 total_rows;
         Alcotest.(check int) "epoch bumped" 1 epoch
       | _ -> Alcotest.fail "expected Ingested");
      (match Service.Client.call_exn c (P.Request.detect ~table:"people" ()) with
       | P.Detections { flags; _ } ->
         Alcotest.(check int) "detect sees the appended rows" 5
           (Array.length flags)
       | _ -> Alcotest.fail "expected Detections");
      (match
         Service.Client.call_exn c
           (P.Request.update ~table:"people" ~cells:[ (1, "grade", "senior") ])
       with
       | P.Ingested { rows; total_rows; epoch; _ } ->
         Alcotest.(check int) "update appends nothing" 0 rows;
         Alcotest.(check int) "row count unchanged" 5 total_rows;
         Alcotest.(check int) "epoch bumped again" 2 epoch
       | _ -> Alcotest.fail "expected Ingested");
      (match Service.Client.call_exn c (P.Request.refresh ~table:"people") with
       | P.Refreshed { table; checked; _ } ->
         Alcotest.(check string) "refreshed table" "people" table;
         Alcotest.(check int) "statements checked" 1 checked
       | _ -> Alcotest.fail "expected Refreshed");
      (match
         Service.Client.call c (P.Request.append ~table:"ghost" ~csv:"a\n1\n")
       with
       | P.Error_reply msg ->
         Alcotest.(check bool) "unknown table named in error" true
           (contains ~needle:"ghost" msg)
       | _ -> Alcotest.fail "expected Error_reply"));
  Service.Server.stop server;
  Domain.join runner

(* N pipelined requests on one connection: replies arrive in request
   order even though a pool of 4 may finish them out of order. Each
   DETECT names a distinct missing table, so each Error_reply embeds
   which request it answers. *)
let test_pipeline_replies_in_order () =
  let registry = Service.Registry.create () in
  let server, addr, runner = start_server ~pool_size:4 registry in
  Service.Client.with_connection addr (fun c ->
      let n = 24 in
      let reqs =
        List.init n (fun i ->
            P.Detect { table = Printf.sprintf "ghost%02d" i; csv = None })
      in
      let resps = Service.Client.pipeline c reqs in
      Alcotest.(check int) "one reply per request" n (List.length resps);
      List.iteri
        (fun i resp ->
          match resp with
          | Service.Client.Reply (P.Error_reply msg) ->
            Alcotest.(check bool)
              (Printf.sprintf "reply %d answers request %d" i i)
              true
              (contains ~needle:(Printf.sprintf "ghost%02d" i) msg)
          | _ -> Alcotest.fail "expected an unknown-table error")
        resps);
  Service.Server.stop server;
  Domain.join runner

(* Saturating max_inflight yields Busy_reply for the overflow — in
   position, with the connection still usable — and the sheds surface
   in the metrics. The whole batch goes out in one write, so it is
   parsed (and admitted/shed) before any reply is drained, making the
   split deterministic regardless of worker speed. *)
let test_busy_reply_on_saturation () =
  let path = Filename.temp_file "guardrail" ".sock" in
  Unix.unlink path;
  let registry = Service.Registry.create () in
  let config =
    Service.Server.Config.make ~pool_size:1 ~max_inflight:2
      ~read_timeout_s:10.0 ()
  in
  let server, _, runner =
    let server = Service.Server.create ~config registry in
    let addr = Service.Server.bind server (Unix.ADDR_UNIX path) in
    let runner = Domain.spawn (fun () -> Service.Server.run server) in
    (server, addr, runner)
  in
  let c = Service.Client.connect_unix path in
  let n = 6 in
  let resps = Service.Client.pipeline c (List.init n (fun _ -> P.Ping)) in
  let oks, busys =
    List.fold_left
      (fun (oks, busys) -> function
        | Service.Client.Reply (P.Ok_reply "pong") -> (oks + 1, busys)
        | Service.Client.Busy -> (oks, busys + 1)
        | _ -> Alcotest.fail "unexpected reply under saturation")
      (0, 0) resps
  in
  Alcotest.(check int) "admitted = max_inflight" 2 oks;
  Alcotest.(check int) "overflow shed" (n - 2) busys;
  (* the shed outcomes hold their positions: heads admitted, tail busy *)
  (match resps with
   | Service.Client.Reply (P.Ok_reply _) :: Service.Client.Reply (P.Ok_reply _)
     :: rest ->
     List.iter
       (function
         | Service.Client.Busy -> ()
         | _ -> Alcotest.fail "expected Busy after the admitted head")
       rest
   | _ -> Alcotest.fail "admitted replies must come first");
  (* the connection is still usable after being shed *)
  (match Service.Client.call_exn c P.Ping with
   | P.Ok_reply "pong" -> ()
   | _ -> Alcotest.fail "connection unusable after Busy_reply");
  let s = Service.Metrics.snapshot (Service.Server.metrics server) in
  Alcotest.(check int) "sheds counted" (n - 2) s.Service.Metrics.sheds;
  Alcotest.(check bool) "inflight peak recorded" true
    (s.Service.Metrics.inflight_peak >= 1);
  Alcotest.(check bool) "sheds in rendered stats" true
    (contains ~needle:"4 shed" (Service.Metrics.render s));
  Service.Client.close c;
  Service.Server.stop server;
  Domain.join runner

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "truncated rejected" `Quick test_truncated_rejected;
          Alcotest.test_case "trailing bytes rejected" `Quick
            test_trailing_bytes_rejected;
          Alcotest.test_case "bad version/tag" `Quick test_bad_version_and_tag;
          Alcotest.test_case "request golden bytes" `Quick
            test_request_golden_bytes;
          Alcotest.test_case "response golden bytes" `Quick
            test_response_golden_bytes;
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame_rejected;
          Alcotest.test_case "truncated frame" `Quick test_truncated_frame_rejected;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counts" `Quick test_metrics_counts;
          Alcotest.test_case "STATS reply golden bytes" `Quick
            test_stats_reply_golden_bytes;
          Alcotest.test_case "render golden" `Quick test_metrics_render_golden;
        ] );
      ( "registry",
        [
          Alcotest.test_case "load/find/compile-once" `Quick test_registry_load_find;
          Alcotest.test_case "set_program" `Quick test_registry_set_program;
          Alcotest.test_case "sharded" `Quick test_registry_sharded;
          Alcotest.test_case "snapshot across replace" `Quick
            test_registry_snapshot_across_replace;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "errors" `Quick test_dispatch_errors;
          Alcotest.test_case "detect matches offline" `Quick
            test_dispatch_detect_matches_offline;
          Alcotest.test_case "model per table" `Quick test_dispatch_model_per_table;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "concurrent clients" `Quick
            test_loopback_concurrent_clients;
          Alcotest.test_case "malformed keeps serving" `Quick
            test_loopback_malformed_keeps_serving;
          Alcotest.test_case "shutdown drains" `Quick test_loopback_shutdown_drains;
          Alcotest.test_case "unix socket" `Quick test_unix_domain_socket;
          Alcotest.test_case "trace lifecycle" `Quick test_loopback_trace;
          Alcotest.test_case "streaming ingest" `Quick test_loopback_ingest;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "split frames" `Quick test_split_frames_byte_by_byte;
          Alcotest.test_case "pipelined in order" `Quick
            test_pipeline_replies_in_order;
          Alcotest.test_case "busy reply sheds" `Quick
            test_busy_reply_on_saturation;
        ] );
    ]
