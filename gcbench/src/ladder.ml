(* dacapo-ladder: the Table 2 stable subset under the six JDK8 collectors
   plus ParallelOldGC with adaptive sizing, each on three heap rungs —
   the paper baseline (16 GB heap, 5.6 GB young) and the §3.3 small
   heaps 1 GB/200 MB and 500 MB/100 MB — with a system GC forced
   between iterations.

   The 16g rung triggers no young collection at all (its pauses are the
   forced ones), so it isolates the mutator and TLAB path; the same
   mutator work on the small rungs runs hundreds of collections, many of
   them full.  The rungs therefore separate collection cost from
   allocation cost.  One domain, driven exactly as [Harness.run] drives
   a benchmark. *)

module Vm = Gcperf_runtime.Vm
module Mutator = Gcperf_workload.Mutator
module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Gc_config = Gcperf_gc.Gc_config
module Gc_event = Gcperf_sim.Gc_event
module Exp_common = Gcperf.Exp_common
module Scope = Gcperf.Scope

type spec = {
  bench : Suite.bench;
  variant : string;  (** collector name, or "ParallelOldGC-adaptive" *)
  rung : string;  (** "16g", "1g" or "500m" *)
  gc : Gc_config.t;
}

(* The ci budget: the forced collections and the 16g cells then
   coincide with the dacapo cells of the registry's ci runs. *)
let iterations = Scope.scaled Scope.ci 10

let rungs =
  [
    ("16g", Exp_common.gb 16, Exp_common.mb 5734);
    ("1g", Exp_common.gb 1, Exp_common.mb 200);
    ("500m", Exp_common.mb 500, Exp_common.mb 100);
  ]

let variants ~heap ~young =
  List.map
    (fun kind ->
      (Exp_common.kind_name kind, Exp_common.config kind ~heap ~young ()))
    Exp_common.all_kinds
  @ [
      ( "ParallelOldGC-adaptive",
        {
          (Exp_common.config Gc_config.ParallelOld ~heap ~young ()) with
          Gc_config.adaptive = true;
        } );
    ]

let variant_names = List.map fst (variants ~heap:1 ~young:1)
let rung_names = List.map (fun (r, _, _) -> r) rungs

let specs () =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun (rung, heap, young) ->
          List.map
            (fun (variant, gc) -> { bench; variant; rung; gc })
            (variants ~heap ~young))
        rungs)
    Suite.stable_subset
  |> Array.of_list

let cell_name s =
  Printf.sprintf "%s/%s/%s" s.bench.Suite.profile.Gcperf_workload.Profile.name
    s.variant s.rung

(* [Harness.run] composed from its public steps so that each step is
   timed on its own; the result is the record [Harness.run] returns. *)
let run layers machine ~seed s =
  let bench = s.bench in
  let base =
    {
      Harness.bench_name = bench.Suite.profile.Gcperf_workload.Profile.name;
      gc_name = Gc_config.kind_to_string s.gc.Gc_config.kind;
      heap_bytes = s.gc.Gc_config.heap_bytes;
      young_bytes = s.gc.Gc_config.young_bytes;
      tlab = s.gc.Gc_config.tlab;
      system_gc = true;
      crashed = false;
      oom = false;
      iterations = [||];
      total_s = 0.0;
      final_s = 0.0;
      events = [];
    }
  in
  let vm =
    Layers.time layers "runtime.create_s" (fun () ->
        Vm.create machine s.gc ~seed)
  in
  let result =
    match
      Layers.time layers "workload.create_s" (fun () ->
          Mutator.create vm bench.Suite.profile ~seed:((seed * 7919) + 13))
    with
    | exception Gcperf_gc.Gc_ctx.Out_of_memory _ -> { base with oom = true }
    | mutator -> (
        let stats = ref [] in
        let start_s = Vm.now_s vm in
        let iteration () =
          Layers.time layers "workload.iteration_s"
            ~also:
              [
                "workload.iteration_s." ^ s.variant;
                "workload.iteration_s." ^ s.rung;
              ]
            ~mwords:"workload.iteration_mwords"
            (fun () -> Mutator.run_iteration mutator)
        in
        match
          for i = 1 to iterations do
            let st = iteration () in
            Layers.add layers
              ("sim.alloc_kb." ^ s.rung)
              (float_of_int st.Mutator.allocated_bytes /. 1024.0);
            stats := st :: !stats;
            if i < iterations then
              Layers.time layers "gc.system_gc_s" ~mwords:"gc.system_gc_mwords"
                (fun () ->
                  Layers.add layers "gc.system_gc_calls" 1.0;
                  Vm.system_gc vm)
          done
        with
        | exception Gcperf_gc.Gc_ctx.Out_of_memory _ ->
            {
              base with
              oom = true;
              iterations = Array.of_list (List.rev !stats);
            }
        | () ->
            let arr = Array.of_list (List.rev !stats) in
            {
              base with
              iterations = arr;
              total_s = Vm.now_s vm -. start_s;
              final_s =
                (if Array.length arr = 0 then 0.0
                 else arr.(Array.length arr - 1).Mutator.duration_s);
              events = Gc_event.events (Vm.events vm);
            })
  in
  let name = cell_name s in
  if Layers.on layers then begin
    let young, full =
      List.fold_left
        (fun (y, f) e ->
          if Gc_event.is_full e.Gc_event.kind then (y, f + 1) else (y + 1, f))
        (0, 0) result.Harness.events
    in
    Layers.add layers "sim.young_pauses" (float_of_int young);
    Layers.add layers "sim.full_pauses" (float_of_int full);
    Layers.add layers "sim.alloc_gb"
      (Array.fold_left
         (fun a st -> a +. float_of_int st.Mutator.allocated_bytes)
         0.0 result.Harness.iterations
      /. 1073741824.0)
  end;
  let cell =
    {
      Cell.name;
      digest = Cell.digest result;
      virtual_s = Vm.now_s vm;
      host_s = 0.0;
      error = Cell.invariants name (Vm.check_invariants vm);
    }
  in
  (result, cell)

(* Per-layer figures derived once the pass's spans are summed. *)
let derive layers =
  List.iter
    (fun rung ->
      let kb = Layers.get layers ("sim.alloc_kb." ^ rung) in
      if kb > 0.0 then
        Layers.add layers
          ("runtime.ns_per_sim_kb." ^ rung)
          (Layers.get layers ("workload.iteration_s." ^ rung) *. 1e9 /. kb))
    rung_names;
  let calls = Layers.get layers "gc.system_gc_calls" in
  if calls > 0.0 then
    Layers.add layers "gc.system_gc_us_per_call"
      (Layers.get layers "gc.system_gc_s" *. 1e6 /. calls);
  Layers.add layers "policy.iteration_s_delta"
    (Layers.get layers "workload.iteration_s.ParallelOldGC-adaptive"
    -. Layers.get layers "workload.iteration_s.ParallelOldGC")

(* Set-up builds the machine model and the cell specs; the closure it
   returns runs one pass. *)
let setup ~seed =
  let machine = Exp_common.machine () in
  let specs = specs () in
  fun ~trace ->
  let layers = Layers.create ~on:trace in
  let cells =
    Array.map
      (fun s ->
        Cell.run (cell_name s) (fun () -> snd (run layers machine ~seed s)))
      specs
  in
  derive layers;
  (cells, layers)
