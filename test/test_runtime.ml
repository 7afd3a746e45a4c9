(* Tests for Runtime.Pool, the shared Domain worker pool: future
   plumbing, order preservation, and the shutdown contract (idempotent
   shutdown, deterministic Stopped after it). *)

module Pool = Runtime.Pool

let test_submit_await () =
  let pool = Pool.create ~size:4 () in
  let futures = List.init 20 (fun i -> Pool.submit pool (fun () -> i * i)) in
  let results = List.map Pool.await futures in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "squares" (List.init 20 (fun i -> i * i)) results

let test_map_list_order () =
  let pool = Pool.create ~size:3 () in
  let out = Pool.map_list pool (fun x -> x + 1) [ 1; 2; 3; 4; 5 ] in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "order preserved" [ 2; 3; 4; 5; 6 ] out

let test_parmap_matches_map () =
  let xs = List.init 101 (fun i -> i) in
  let f x = (x * 7919) mod 101 in
  let expected = List.map f xs in
  Alcotest.(check (list int)) "no pool" expected (Pool.parmap f xs);
  let pool = Pool.create ~size:4 () in
  Alcotest.(check (list int)) "pool, default chunk" expected
    (Pool.parmap ~pool f xs);
  Alcotest.(check (list int)) "pool, chunk 1" expected
    (Pool.parmap ~pool ~chunk:1 f xs);
  Alcotest.(check (list int)) "pool, oversized chunk" expected
    (Pool.parmap ~pool ~chunk:1000 f xs);
  Pool.shutdown pool;
  let one = Pool.create ~size:1 () in
  Alcotest.(check (list int)) "single-worker pool" expected
    (Pool.parmap ~pool:one f xs);
  Pool.shutdown one

let test_exception_propagates () =
  let pool = Pool.create ~size:2 () in
  let fut = Pool.submit pool (fun () -> failwith "job blew up") in
  let raised =
    match Pool.await fut with
    | _ -> false
    | exception Failure msg -> msg = "job blew up"
  in
  Pool.shutdown pool;
  Alcotest.(check bool) "exception re-raised at await" true raised

let test_shutdown_idempotent () =
  let pool = Pool.create ~size:3 () in
  let counter = Atomic.make 0 in
  for _ = 1 to 10 do
    Pool.post pool (fun () -> Atomic.incr counter)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "queued jobs drained" 10 (Atomic.get counter);
  Alcotest.(check int) "no workers left" 0 (Pool.size pool);
  Alcotest.(check bool) "post after the drain raises Stopped" true
    (match Pool.post pool (fun () -> ()) with
     | () -> false
     | exception Pool.Stopped -> true);
  (* second and third calls are documented no-ops *)
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check int) "still drained, nothing re-run" 10 (Atomic.get counter)

let test_shutdown_concurrent () =
  (* two domains racing shutdown: each worker must be joined exactly
     once, so neither call raises and both return *)
  let pool = Pool.create ~size:2 () in
  let a = Domain.spawn (fun () -> Pool.shutdown pool) in
  let b = Domain.spawn (fun () -> Pool.shutdown pool) in
  Domain.join a;
  Domain.join b;
  Alcotest.(check int) "no workers left" 0 (Pool.size pool)

let test_submit_after_shutdown_raises () =
  let pool = Pool.create ~size:2 () in
  Pool.shutdown pool;
  let stopped f = match f () with _ -> false | exception Pool.Stopped -> true in
  Alcotest.(check bool) "post raises Stopped" true
    (stopped (fun () -> Pool.post pool (fun () -> ())));
  Alcotest.(check bool) "submit raises Stopped" true
    (stopped (fun () -> ignore (Pool.submit pool (fun () -> 42))));
  (* still Stopped on repeat — deterministic, not racy *)
  Alcotest.(check bool) "submit raises Stopped again" true
    (stopped (fun () -> ignore (Pool.submit pool (fun () -> 42))))

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "map_list order" `Quick test_map_list_order;
          Alcotest.test_case "parmap = map" `Quick test_parmap_matches_map;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "shutdown concurrent" `Quick test_shutdown_concurrent;
          Alcotest.test_case "submit after shutdown" `Quick
            test_submit_after_shutdown_raises;
        ] );
    ]
