(* Smoke binary for `dune build @exec-smoke`: regenerate table2 at CI
   scope sequentially and through worker domains, and fail loudly if
   the artifacts differ by a single byte.

   With no arguments it compares jobs=1 against jobs=2 (the contract
   exercised by the @exec-smoke alias).  CI's multicore-smoke job passes
   an explicit count — `exec_smoke.exe JOBS` — so the same binary also
   proves the contract on runners that really have more than one core. *)

let () =
  let jobs =
    if Array.length Sys.argv > 1 then
      match int_of_string_opt Sys.argv.(1) with
      | Some n when n >= 1 -> n
      | _ ->
          Printf.eprintf "exec-smoke: usage: %s [JOBS]\n" Sys.argv.(0);
          exit 2
    else 2
  in
  let scope = Gcperf.Scope.ci in
  let render jobs =
    match Gcperf.Experiments.artifact ~scope ~jobs "table2" with
    | Some a -> Gcperf.Artifact.render a `Json
    | None -> failwith "table2 artifact missing"
  in
  let sequential = render 1 in
  if String.equal sequential (render jobs) then
    Printf.printf "exec-smoke: table2 byte-identical at jobs=1 and jobs=%d\n"
      jobs
  else begin
    Printf.eprintf "exec-smoke: artifact at jobs=%d diverged from sequential\n"
      jobs;
    exit 1
  end
