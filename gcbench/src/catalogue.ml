(* Every metric the benchmark reports, with its unit.  A run with
   tracing off prints [end_to_end]; a traced run prints [per_layer],
   every one of them on every workload: a layer a workload does not
   call reads 0. *)

let end_to_end =
  [
    ("wall_s", "s");
    ("sim_s_per_wall_s", "s/s");
    ("peak_rss_mb", "MB");
    ("alloc_mwords", "Mwords");
    ("setup_s", "s");
  ]

let each prefix names unit = List.map (fun n -> (prefix ^ n, unit)) names
let kv = Kv.variant_names

let profiles =
  List.map Gcperf_fault.Profile.to_string Gcperf_fault.Profile.all

let per_layer =
  [
    (* dacapo-ladder *)
    ("runtime.create_s", "s");
    ("workload.create_s", "s");
    ("workload.iteration_s", "s");
  ]
  @ each "workload.iteration_s." Ladder.variant_names "s"
  @ each "workload.iteration_s." Ladder.rung_names "s"
  @ [ ("workload.iteration_mwords", "Mwords") ]
  @ each "runtime.ns_per_sim_kb." Ladder.rung_names "ns/KB"
  @ [
      ("gc.system_gc_s", "s");
      ("gc.system_gc_us_per_call", "us");
      ("gc.system_gc_mwords", "Mwords");
      ("policy.iteration_s_delta", "s");
    ]
  (* kv-pauseless *)
  @ each "kvstore.replay_s." kv "s"
  @ each "kvstore.serve_s." kv "s"
  @ each "kvstore.ns_per_op." kv "ns"
  @ each "kvstore.serve_mwords." kv "Mwords"
  @ each "ycsb.session_s." kv "s"
  @ [ ("exec.critical_cell_s", "s"); ("exec.pool_busy_ratio", "ratio") ]
  (* client-tail *)
  @ each "ycsb.session_s." profiles "s"
  @ [
      ("ycsb.session_s.resilience-off", "s");
      ("ycsb.session_s.paper-defaults", "s");
      ("ycsb.points_s", "s");
      ("stats.report_s", "s");
      ("cluster.ring_create_s", "s");
      ("cluster.coordinator_s", "s");
      ("cluster.ns_per_subop", "ns");
    ]
  (* simulated counts, exact at a fixed seed *)
  @ [
      ("sim.young_pauses", "count");
      ("sim.full_pauses", "count");
      ("sim.alloc_gb", "GB");
      ("sim.virtual_s", "s");
    ]
  @ each "sim.pauses." kv "count"
  @ each "sim.server_ops." kv "count"
  @ [ ("sim.subops", "count"); ("sim.sends", "count") ]
  (* what tracing costs, and how much of the pass the spans cover *)
  @ [
      ("trace.overhead_s", "s");
      ("trace.span_cost_s", "s");
      ("trace.layer_coverage", "ratio");
    ]
