(* client-tail: the client stack alone, over server pause and
   database-size timelines that set-up draws from the seed, shaped after
   the G1 servers the library simulates (see {!server_shape}).  Sessions
   under the four fault profiles, resilience off and paper defaults;
   the happy-path points and their report; and the fan-out coordinator
   over a 64-node ring at fan-out 8 and 32, hedged and not.

   No VM runs: ycsb, fault, the kvstore gateway, cluster and stats do
   nearly all the work, so a runtime, heap or collector change should
   leave this workload unchanged.  It is also the only workload that
   runs the coordinator's event loop.  One domain. *)

module Prng = Gcperf_util.Prng
module Client = Gcperf_ycsb.Client
module Resilient = Gcperf_ycsb.Resilient
module Session = Gcperf_ycsb.Session
module Gateway = Gcperf_kvstore.Gateway
module Profile = Gcperf_fault.Profile
module Ring = Gcperf_cluster.Ring
module Node = Gcperf_cluster.Node
module Coordinator = Gcperf_cluster.Coordinator

(* Virtual seconds each session covers, and each coordinator run: short
   enough that every cell takes well under a second of host time. *)
let duration_s = 600.0
let cluster_duration_s = 150.0
let session_ops_per_s = 150.0
let ring_nodes = 64
let replication = 3
let cluster_ops_per_s = 20.0
let keyspace = 400_000
let fanouts = [ 8; 32 ]
let hedge_ms = 5.0

type input = {
  source : Session.source;  (** the single server the sessions replay *)
  nodes : Node.timeline array;  (** one per ring node *)
}

(* {1 Timelines}

   Each timeline follows the shape of a server the library itself
   simulates, summarised as the mean gap between stop-the-world pauses,
   the deciles of the pause lengths, and the database size at the start
   of serving with its growth rate up to the first memtable flush.  {!shape_of} computes that summary from a
   simulated run, and the benchmark's tests recompute both shapes
   below from the library and check them against these figures. *)

type shape = {
  gap_s : float;  (** serving seconds per pause *)
  deciles_ms : float array;  (** pause lengths at 0, 10, ..., 100 % *)
  db_start : float;  (** bytes when serving starts *)
  db_growth : float;  (** bytes per second until the first flush *)
}

let shape_of ~intervals ~serving_s ~db =
  let lens = Array.map (fun (s, e) -> (e -. s) *. 1000.0) intervals in
  Array.sort compare lens;
  let n = Array.length lens in
  let rec first_drop i =
    if i + 1 < Array.length db && snd db.(i + 1) >= snd db.(i) then
      first_drop (i + 1)
    else i
  in
  let k = first_drop 0 in
  {
    gap_s = serving_s /. float_of_int n;
    deciles_ms =
      Array.init 11 (fun i ->
          lens.(int_of_float
                  (Float.round (float_of_int i /. 10.0 *. float_of_int (n - 1)))));
    db_start = float_of_int (snd db.(0));
    db_growth =
      float_of_int (snd db.(k) - snd db.(0)) /. (fst db.(k) -. fst db.(0));
  }

(* The stressed G1 server of Figure 4 at paper scale
   ([Exp_server.run_server_scope ~scope:Scope.full ~kind:G1 ~stress:true
   ~hours:2.0], the run behind results/fig4.txt): 230 pauses, no full
   collection, in 7199.95 s of serving after the commit-log replay; a
   quarter of them are sub-2 ms phases, the rest reach 4.85 s.  The
   database starts at the replayed 22 GB memtable plus its commit log. *)
let server_shape =
  {
    gap_s = 31.3042;
    deciles_ms =
      [| 1.476; 1.476; 1.476; 1.793; 1.793; 396.8; 557.5; 943.7; 2683.0;
         3780.0; 4852.0 |];
    db_start = 47244984320.0;
    db_growth = 4086405.1;
  }

(* A G1 ring node of the cluster experiment at paper scale (node 0 of
   [Exp_cluster]: 2 GB heap, 512 MB young, 768 MB preload, 180 op/s, 90 %
   reads, 30 minutes): 176 pauses in 1812.95 s, a stop-the-world duty
   cycle of 0.15 %, the figure results/cluster.txt reports for G1. *)
let node_shape =
  {
    gap_s = 10.3008;
    deciles_ms =
      [| 1.476; 1.476; 1.476; 1.793; 1.793; 8.852; 10.53; 14.11; 31.98;
         52.52; 59.77 |];
    db_start = 1610690560.0;
    db_growth = 443251.8;
  }

(* The pause length at quantile [u], linear between the deciles. *)
let pause_ms shape u =
  let x = 10.0 *. u in
  let i = min 9 (int_of_float x) in
  let d = shape.deciles_ms in
  d.(i) +. ((x -. float_of_int i) *. (d.(i + 1) -. d.(i)))

(* Stop-the-world intervals over [duration], one per [gap_s] on a grid
   jittered by up to a quarter gap.  The lengths are stratified: the
   k-th of n pauses takes a quantile drawn from [k/n, (k+1)/n), so they
   grow along the timeline as the stressed G1 server's pauses grow with
   its database in Figure 4.  The seed moves and sizes the pauses within
   their strata, but every seed has as many, of nearly the same lengths,
   at nearly the same times: the work the client stack is asked to do
   does not depend on the seed. *)
let pauses rng shape ~duration =
  let n = int_of_float (duration /. shape.gap_s) - 1 in
  Array.init n (fun k ->
      let t =
        (float_of_int (k + 1) *. shape.gap_s)
        +. Prng.float rng (shape.gap_s /. 4.0)
      in
      let u = (float_of_int k +. Prng.float rng 1.0) /. float_of_int n in
      (t, t +. (pause_ms shape u /. 1000.0)))

(* Database size sampled every 10 s, growing from the shape's start at
   its rate, with up to 2 % multiplicative noise. *)
let db_timeline rng shape ~duration =
  Array.init
    (int_of_float (duration /. 10.0))
    (fun i ->
      let t = float_of_int i *. 10.0 in
      let noise = 1.0 +. Prng.float rng 0.02 in
      (t, int_of_float ((shape.db_start +. (shape.db_growth *. t)) *. noise)))

let generate ~seed =
  let rng = Prng.create seed in
  let source =
    {
      Session.pauses = pauses rng server_shape ~duration:duration_s;
      db_timeline = db_timeline rng server_shape ~duration:duration_s;
    }
  in
  let nodes =
    Array.init ring_nodes (fun id ->
        let rng = Prng.split rng in
        let intervals = pauses rng node_shape ~duration:duration_s in
        let paused =
          Array.fold_left (fun a (s, e) -> a +. (e -. s)) 0.0 intervals
        in
        {
          Node.collector = "G1GC";
          node_seed = seed + id;
          duration_s;
          intervals;
          db_timeline = db_timeline rng node_shape ~duration:duration_s;
          pause_fraction = paused /. duration_s;
          oom = false;
        })
  in
  { source; nodes }

let session_workload =
  { Client.paper_workload with Client.duration_s; ops_per_s = session_ops_per_s }

let resilience_name = function
  | Session.Resilience.Off -> "resilience-off"
  | Session.Resilience.Paper_defaults -> "paper-defaults"
  | r -> Session.Resilience.to_string r

let sessions =
  List.concat_map
    (fun p -> [ (p, Session.Resilience.Off); (p, Paper_defaults) ])
    Profile.all

let coordinator_specs =
  List.concat_map (fun f -> [ (f, false); (f, true) ]) fanouts

let session_name (profile, resilience) =
  Printf.sprintf "session/%s/%s" (Profile.to_string profile)
    (resilience_name resilience)

let session_cell layers input ~seed i ((profile, resilience) as s) =
  let summary =
    Layers.time layers
      ("ycsb.session_s." ^ Profile.to_string profile)
      ~also:[ "ycsb.session_s." ^ resilience_name resilience ]
      (fun () ->
        Session.run ~resilience ~profile session_workload input.source
          ~seed:(seed + 11 + i))
  in
  {
    Cell.name = session_name s;
    digest = Cell.digest summary;
    virtual_s = duration_s;
    host_s = 0.0;
    error = None;
  }

let points_cell layers input ~seed =
  let points =
    Layers.time layers "ycsb.points_s" (fun () ->
        Session.points session_workload input.source ~seed:(seed + 7))
  in
  let reports =
    Layers.time layers "stats.report_s" (fun () ->
        ( Client.report points ~kind:Client.Read,
          Client.report points ~kind:Client.Update ))
  in
  {
    Cell.name = "points";
    digest = Cell.digest (Array.length points, reports);
    virtual_s = duration_s;
    host_s = 0.0;
    error = None;
  }

let coordinator_name (fanout, hedge) =
  Printf.sprintf "coordinator/fanout%d/%s" fanout
    (if hedge then "hedged" else "unhedged")

let coordinator_cell layers input ~seed ((fanout, hedge) as c) =
  let resilience =
    if hedge then
      Session.Resilience.Custom
        ({ Resilient.none with Resilient.hedge_ms }, Gateway.unbounded)
    else Session.Resilience.Off
  in
  let gateway = Session.Resilience.gateway resilience in
  let cell_seed = seed + 1000 + (2 * fanout) + Bool.to_int hedge in
  let ring, nodes =
    Layers.time layers "cluster.ring_create_s" (fun () ->
        ( Ring.create ~nodes:ring_nodes ~replication (),
          Array.mapi
            (fun id tl ->
              Node.create ~id tl ~profile:Profile.none ~gateway
                ~seed:(cell_seed + 7 + id))
            input.nodes ))
  in
  let config =
    {
      Coordinator.default with
      Coordinator.workload =
        {
          Coordinator.default.Coordinator.workload with
          Client.ops_per_s = cluster_ops_per_s;
          duration_s = cluster_duration_s;
        };
      resilience;
      fanout;
      keyspace;
      replication;
      hedge;
    }
  in
  let summary =
    Layers.time layers "cluster.coordinator_s" (fun () ->
        Coordinator.run config ~ring ~nodes ~seed:cell_seed)
  in
  Layers.add layers "sim.subops" (float_of_int summary.Coordinator.subops);
  Layers.add layers "sim.sends" (float_of_int summary.Coordinator.sends);
  {
    Cell.name = coordinator_name c;
    digest = Cell.digest summary;
    virtual_s = cluster_duration_s;
    host_s = 0.0;
    error = None;
  }

let setup ~seed =
  let input = generate ~seed in
  fun ~trace ->
    let layers = Layers.create ~on:trace in
    let cells =
      List.mapi
        (fun i s ->
          Cell.run (session_name s) (fun () ->
              session_cell layers input ~seed i s))
        sessions
      @ [ Cell.run "points" (fun () -> points_cell layers input ~seed) ]
      @ List.map
          (fun c ->
            Cell.run (coordinator_name c) (fun () ->
                coordinator_cell layers input ~seed c))
          coordinator_specs
    in
    let subops = Layers.get layers "sim.subops" in
    if subops > 0.0 then
      Layers.add layers "cluster.ns_per_subop"
        (Layers.get layers "cluster.coordinator_s" *. 1e9 /. subops);
    (Array.of_list cells, layers)
