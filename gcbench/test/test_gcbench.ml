open Gcbench
module Harness = Gcperf_dacapo.Harness
module Pool = Gcperf_exec.Pool
module Exp_common = Gcperf.Exp_common
module Exp_pauseless = Gcperf.Exp_pauseless
module Exp_server = Gcperf.Exp_server
module Gc_config = Gcperf_gc.Gc_config
module Node = Gcperf_cluster.Node

let seed = Workloads.default_seed

let check_reference (cell : Cell.t) =
  Alcotest.(check (option string))
    (cell.Cell.name ^ " reference digest")
    (Some cell.Cell.digest)
    (List.assoc_opt cell.Cell.name Reference.digests);
  Alcotest.(check (option string)) (cell.Cell.name ^ " error") None
    cell.Cell.error

(* Every dacapo-ladder cell is the record [Harness.run] returns. *)
let ladder_is_harness () =
  let machine = Exp_common.machine () in
  Array.iter
    (fun (s : Ladder.spec) ->
      let layers = Layers.create ~on:true in
      let result, cell = Ladder.run layers machine ~seed s in
      let expected =
        Harness.run ~seed ~iterations:Ladder.iterations machine s.Ladder.bench
          ~gc:s.Ladder.gc ~system_gc:true ()
      in
      Alcotest.(check bool) (cell.Cell.name ^ " = Harness.run") true
        (result = expected);
      check_reference cell)
    (Ladder.specs ())

(* The kv-pauseless cells, run on one domain, are the registry's ci
   pauseless cells fanned out over two. *)
let kv_is_pauseless () =
  let machine = Exp_common.machine () in
  let ours =
    Pool.map_cells ~jobs:1
      (fun v -> Kv.run (Layers.create ~on:false) machine ~seed v)
      Kv.variants
  in
  let registry =
    Exp_pauseless.run_scope ~scope:Gcperf.Scope.ci ~jobs:2 ()
  in
  Alcotest.(check int) "cell count"
    (List.length registry.Exp_pauseless.cells)
    (Array.length ours);
  List.iteri
    (fun i expected ->
      let result, cell = ours.(i) in
      Alcotest.(check bool) (cell.Cell.name ^ " = pauseless ci cell") true
        (result = expected);
      check_reference cell)
    registry.Exp_pauseless.cells

(* Tracing only observes: a traced pass digests like the reference. *)
let client_tail_reference () =
  let cells, _ = Client_tail.setup ~seed ~trace:true in
  Array.iter check_reference cells

(* client-tail's timelines follow servers the library simulates: the
   shapes in [Client_tail] are those of its own runs. *)
let check_shape name (expected : Client_tail.shape)
    (measured : Client_tail.shape) =
  let close what a b =
    if Float.abs (a -. b) > 1e-3 *. Float.abs b then
      Alcotest.failf "%s %s: client-tail has %g, the simulated run %g" name
        what a b
  in
  close "gap_s" expected.gap_s measured.gap_s;
  Array.iteri
    (fun i d -> close (Printf.sprintf "decile %d" i) d measured.deciles_ms.(i))
    expected.deciles_ms;
  close "db_start" expected.db_start measured.db_start;
  close "db_growth" expected.db_growth measured.db_growth

let client_tail_shapes () =
  let g1 =
    Exp_server.run_server_scope ~scope:Gcperf.Scope.full ~kind:Gc_config.G1
      ~stress:true ~hours:2.0 ()
  in
  let db = g1.Exp_server.db_timeline in
  check_shape "fig4 G1 server" Client_tail.server_shape
    (Client_tail.shape_of ~intervals:g1.Exp_server.intervals
       ~serving_s:(g1.Exp_server.duration_s -. fst db.(0))
       ~db);
  (* Node 0 of the cluster experiment's G1 ring at full scope, configured
     as [Exp_cluster] configures it. *)
  let gc =
    Exp_common.config Gc_config.G1 ~heap:(Exp_common.gb 2)
      ~young:(Exp_common.mb 512) ()
  in
  let node =
    Node.generate (Exp_common.machine ()) ~gc ~duration_s:1800.0
      ~ops_per_s:180.0 ~read_frac:0.9 ~preload_bytes:(Exp_common.mb 768)
      ~seed:(Exp_common.seed + 500 + 1009)
  in
  check_shape "G1 ring node" Client_tail.node_shape
    (Client_tail.shape_of ~intervals:node.Node.intervals
       ~serving_s:node.Node.duration_s ~db:node.Node.db_timeline)

let () =
  Alcotest.run "gcbench"
    [
      ( "same-program",
        [
          Alcotest.test_case "dacapo-ladder = Harness.run" `Slow
            ladder_is_harness;
          Alcotest.test_case "kv-pauseless = pauseless ci" `Slow
            kv_is_pauseless;
          Alcotest.test_case "client-tail reference" `Quick
            client_tail_reference;
          Alcotest.test_case "client-tail timelines = simulated G1" `Slow
            client_tail_shapes;
        ] );
    ]
