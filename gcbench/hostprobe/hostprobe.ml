(* Host-speed probe.

     hostprobe.exe

   On a shared host the speed of allocation-heavy code drifts by tens
   of percent over minutes as neighbours contend for caches and memory,
   and the simulator is allocation-heavy code.  This program does a
   fixed piece of such work (short-lived lists and a hash table) in a
   fresh process, as every pass of the benchmark runs in one, and prints
   the seconds it took.  On a quiet host that is about 80 ms.

   It links none of the library and the benchmark starts it with fixed
   GC parameters, so a change to the program under test, its runtime
   settings included, cannot change what the probe measures. *)

let work () =
  let acc = ref 0 in
  for _ = 1 to 10 do
    let l = List.init 20_000 (fun i -> (i, i * 3)) in
    let h = Hashtbl.create 1024 in
    List.iter
      (fun (a, b) -> if a land 7 = 0 then Hashtbl.replace h (a land 4095) b)
      l;
    acc :=
      !acc + List.fold_left (fun s (a, b) -> s + a + b) 0 l + Hashtbl.length h
  done;
  Sys.opaque_identity !acc

let () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 10 do
    ignore (work ())
  done;
  Printf.printf "%.17g\n" (Unix.gettimeofday () -. t0)
