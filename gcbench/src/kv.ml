(* kv-pauseless: the stressed key-value server (64 GB heap, 12 GB young)
   replays its commit log, then serves 88/10/2 read/update/insert
   traffic at 1500 op/s under G1GC, ConcurrentRegionsGC and JournalRCGC
   at fold-jobs 1, 2 and 4; each cell ends with the pause-spike client
   session, resilience off.  At the ci budget the cells are those of the
   registry's pauseless experiment at its first heap.

   Its large, long-lived old generation with old-to-young references
   uses the heap the opposite way from dacapo-ladder's short-lived
   churn, and it is the only workload that runs the concurrent
   collectors (load barriers, forwarding table, journal fold) and the
   cell pool.  The slowest cell sets the pass's wall time. *)

module Vm = Gcperf_runtime.Vm
module Server = Gcperf_kvstore.Server
module Gc_config = Gcperf_gc.Gc_config
module Gc_event = Gcperf_sim.Gc_event
module Client = Gcperf_ycsb.Client
module Session = Gcperf_ycsb.Session
module Profile = Gcperf_fault.Profile
module Pool = Gcperf_exec.Pool
module Exp_common = Gcperf.Exp_common
module Exp_server = Gcperf.Exp_server
module Exp_pauseless = Gcperf.Exp_pauseless
module Scope = Gcperf.Scope

let scope = Scope.ci
let heap_gb = 64

(* The server's stress deployment and traffic (§4.1). *)
let young_bytes = Exp_common.gb 12
let preload_bytes = Exp_common.gb 22
let hours = 2.0
let ops_per_s = 1500.0
let read_frac = 0.88
let insert_frac = 0.02

type variant = {
  metric : string;  (** the name per-layer metrics carry *)
  label : string;  (** the registry experiment's display label *)
  kind : Gc_config.kind;
  fold_jobs : int;  (** 0 for non-journal collectors *)
}

let variants =
  [|
    { metric = "G1GC"; label = "G1"; kind = Gc_config.G1; fold_jobs = 0 };
    {
      metric = "ConcurrentRegionsGC";
      label = "ConcurrentRegionsGC";
      kind = Gc_config.Concurrent_regions;
      fold_jobs = 0;
    };
    {
      metric = "JournalRCGC-fj1";
      label = "JournalRCGC/fj1";
      kind = Gc_config.Journal_rc;
      fold_jobs = 1;
    };
    {
      metric = "JournalRCGC-fj2";
      label = "JournalRCGC/fj2";
      kind = Gc_config.Journal_rc;
      fold_jobs = 2;
    };
    {
      metric = "JournalRCGC-fj4";
      label = "JournalRCGC/fj4";
      kind = Gc_config.Journal_rc;
      fold_jobs = 4;
    };
  |]

let variant_names = Array.to_list (Array.map (fun v -> v.metric) variants)

let config v =
  let base =
    Gc_config.default v.kind
      ~heap_bytes:(Exp_common.gb heap_gb)
      ~young_bytes
  in
  if v.fold_jobs > 0 then { base with Gc_config.journal_fold_jobs = v.fold_jobs }
  else base

(* Cells fan out over at most two domains, and never more than the host
   has cores. *)
let default_domains () = max 1 (min 2 (Domain.recommended_domain_count ()))

let summarise vm ~label ~oom server =
  let events = Vm.events vm in
  let all = Gc_event.events events in
  let max_of kinds =
    List.fold_left
      (fun acc e ->
        if List.mem e.Gc_event.kind kinds then
          Float.max acc (e.Gc_event.duration_us /. 1e6)
        else acc)
      0.0 all
  in
  {
    Exp_server.gc = label;
    config_name = "stress";
    duration_s = Vm.now_s vm;
    pauses =
      Array.of_list
        (List.map
           (fun e ->
             (e.Gc_event.start_us /. 1e6, e.Gc_event.duration_us /. 1e6))
           all);
    intervals = Gc_event.intervals events;
    db_timeline = Server.db_size_timeline server;
    young_max_s = max_of [ Gc_event.Young; Gc_event.Mixed ];
    full_max_s = max_of [ Gc_event.Full ];
    full_count = Gc_event.count_full events;
    max_pause_s = Gc_event.max_pause_s events;
    oom;
  }

(* One cell: server replay and serving, then the client session, each
   timed on its own.  The result is the registry experiment's cell. *)
let run layers machine ~seed v =
  let k = v.metric in
  let gc = config v in
  let vm = Vm.create machine gc ~seed in
  let server =
    Server.create vm
      (Server.stress_config ~heap_bytes:gc.Gc_config.heap_bytes)
      ~seed:(seed + 1)
  in
  let oom =
    try
      Layers.time layers ("kvstore.replay_s." ^ k) (fun () ->
          Server.replay_commitlog server
            ~target_bytes:(Scope.bytes scope preload_bytes));
      Layers.time layers ("kvstore.serve_s." ^ k)
        ~mwords:("kvstore.serve_mwords." ^ k) (fun () ->
          Server.run server
            ~duration_s:(Scope.hours scope hours *. 3600.0)
            ~ops_per_s ~read_frac ~insert_frac);
      false
    with Gcperf_gc.Gc_ctx.Out_of_memory _ -> true
  in
  let srv = summarise vm ~label:v.label ~oom server in
  let workload =
    let w = Client.paper_workload in
    {
      w with
      Client.duration_s = srv.Exp_server.duration_s;
      ops_per_s = Scope.rate scope w.Client.ops_per_s;
    }
  in
  let summary =
    Layers.time layers ("ycsb.session_s." ^ k) (fun () ->
        Session.run ~resilience:Session.Resilience.Off
          ~profile:Profile.pause_spike ~collector:v.label workload
          {
            Session.pauses = srv.Exp_server.intervals;
            db_timeline = srv.Exp_server.db_timeline;
          }
          ~seed:(seed + 173))
  in
  let ops = Server.operations server in
  Layers.add layers ("sim.pauses." ^ k)
    (float_of_int (Array.length srv.Exp_server.pauses));
  Layers.add layers ("sim.server_ops." ^ k) (float_of_int ops);
  if ops > 0 then
    Layers.add layers ("kvstore.ns_per_op." ^ k)
      (Layers.get layers ("kvstore.serve_s." ^ k) *. 1e9 /. float_of_int ops);
  let result =
    {
      Exp_pauseless.gc = v.label;
      heap_gb;
      fold_jobs = v.fold_jobs;
      server = srv;
      summary;
    }
  in
  let name = "kv/" ^ k in
  let cell =
    {
      Cell.name;
      digest = Cell.digest (result, ops);
      virtual_s = srv.Exp_server.duration_s;
      host_s = 0.0;
      error = Cell.invariants name (Vm.check_invariants vm);
    }
  in
  (result, cell)

(* One pass over [domains] pool workers: each cell owns its layer
   accumulator, merged in cell order after the pool joins. *)
let run_all ~domains ~trace machine ~seed =
  Pool.map_cells ~jobs:domains
    (fun v ->
      let layers = Layers.create ~on:trace in
      let cell =
        Cell.run ("kv/" ^ v.metric) (fun () ->
            snd (run layers machine ~seed v))
      in
      (cell, layers))
    variants

let setup ~seed =
  let machine = Exp_common.machine () in
  let domains = default_domains () in
  fun ~trace ->
    let t0 = Layers.now () in
    let outcomes = run_all ~domains ~trace machine ~seed in
    let wall = Layers.now () -. t0 in
    let layers = Layers.create ~on:trace in
    Array.iter (fun (_, l) -> Layers.merge_into layers l) outcomes;
    let cells = Array.map fst outcomes in
    let times = Array.map (fun c -> c.Cell.host_s) cells in
    Layers.add layers "exec.critical_cell_s" (Array.fold_left Float.max 0.0 times);
    Layers.add layers "exec.pool_busy_ratio"
      (Array.fold_left ( +. ) 0.0 times /. (float_of_int domains *. wall));
    (cells, layers)
