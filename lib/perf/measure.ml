let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time1 f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

type sample = {
  min_s : float;
  median_s : float;
  max_s : float;
  reps : int;
}

let run ?(warmup = 1) ?(reps = 5) ?(inner = 1) ?(gc_compact = true) f =
  let reps = max 1 reps in
  let inner = max 1 inner in
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let times =
    Array.init reps (fun _ ->
        if gc_compact then Gc.compact ();
        let _, dt =
          time1 (fun () ->
              for _ = 1 to inner do
                ignore (Sys.opaque_identity (f ()))
              done)
        in
        dt /. float_of_int inner)
  in
  Array.sort compare times;
  {
    min_s = times.(0);
    median_s = times.(reps / 2);
    max_s = times.(reps - 1);
    reps;
  }
