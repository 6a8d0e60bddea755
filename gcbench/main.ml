(* The gcperf benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Each pass of the workload runs in a fresh process of this executable
   that sets the workload up, runs it once and reports back, so every
   pass pays set-up and has a peak resident set of its own.  Passes
   repeat for about S seconds, at least [min_passes] of them.  Between
   them the host-speed probe runs (hostprobe/hostprobe.ml), and host
   times are reported at the probe's nominal host speed.  Every
   cell's simulated results are digested: the passes must agree with
   each other and, at the default seed, with the reference.

   The last line of standard output is one JSON object: the end-to-end
   metrics with tracing off, or the per-layer metrics with tracing on.
   A traced run interleaves untraced and traced passes, so it also
   reports what tracing costs. *)

open Gcbench

let workload = ref ""
let seed = ref Workloads.default_seed
let seconds = ref 10.0
let trace = ref 0
let child = ref false
let setup_probe = ref false
let print_digests = ref false

(* Passes per run at least, and set-up samples per run at least: the
   passes' own set-ups count, processes that only set up make up the
   rest.  A set-up takes a few milliseconds, most of it process start,
   so only a median over many is steady. *)
let min_passes = 2
let setup_samples = 201
let setup_batch = 20

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S seconds to measure");
    ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics");
    ("--pass", Arg.Set child, " run one pass and report it (internal)");
    ("--setup-probe", Arg.Set setup_probe, " only set up (internal)");
    ( "--print-digests",
      Arg.Set print_digests,
      " run one pass and print each cell's digest as Reference lists it" );
  ]

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("gcbench: " ^ s);
      exit 2)
    fmt

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Words allocated by every domain, terminated ones included. *)
let all_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> fail "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* {1 One pass, in its own process}

   Reported as tab-separated lines: [setup] with the time of day of the
   first timed call, one [cell] line per cell, one [layer] line per
   layer metric, and a closing [pass] line. *)

let clean s = String.map (function '\t' | '\n' -> ' ' | c -> c) s

let run_pass (w : Workloads.t) ~traced =
  let run = w.Workloads.setup ~seed:!seed in
  Printf.printf "setup\t%.17g\n%!" (now ());
  let w0 = all_words () in
  let t0 = now () in
  let cells, layers = run ~trace:traced in
  let wall = now () -. t0 in
  if traced then
    Layers.add layers "trace.span_cost_s" (Layers.bookkeeping_s layers);
  let mwords = (all_words () -. w0) /. 1e6 in
  Array.iter
    (fun c ->
      Printf.printf "cell\t%s\t%s\t%.17g\t%.17g\t%s\n" c.Cell.name
        c.Cell.digest c.Cell.host_s c.Cell.virtual_s
        (clean (Option.value ~default:"" c.Cell.error)))
    cells;
  List.iter
    (fun (k, v) -> Printf.printf "layer\t%s\t%.17g\n" k v)
    (Layers.to_list layers);
  Printf.printf "pass\t%.17g\t%.17g\t%.17g\t%.17g\n" wall mwords
    (Layers.spans_s layers) (peak_rss_mb ())

type pass = {
  traced : bool;
  setup_s : float;
  cells : Cell.t array;
  layers : (string * float) list;
  wall : float;
  mwords : float;
  spans_s : float;
  rss_mb : float;
  raw_wall : float;  (** [wall] before it is scaled to the nominal host *)
}

let spawn ~mode ~traced =
  let args =
    [|
      Sys.executable_name;
      mode;
      "--workload";
      !workload;
      "--seed";
      string_of_int !seed;
      "--trace";
      (if traced then "1" else "0");
    |]
  in
  let t0 = now () in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec read acc =
    match input_line ic with
    | line -> read (String.split_on_char '\t' line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "a %s process failed" mode);
  let f = float_of_string in
  let p =
    {
      traced;
      setup_s = 0.0;
      cells = [||];
      layers = [];
      wall = 0.0;
      mwords = 0.0;
      spans_s = 0.0;
      rss_mb = 0.0;
      raw_wall = 0.0;
    }
  in
  let cells = ref [] in
  let p =
    List.fold_left
      (fun p -> function
        | [ "setup"; t ] -> { p with setup_s = f t -. t0 }
        | [ "cell"; name; digest; host_s; virtual_s; error ] ->
            cells :=
              {
                Cell.name;
                digest;
                host_s = f host_s;
                virtual_s = f virtual_s;
                error = (if error = "" then None else Some error);
              }
              :: !cells;
            p
        | [ "layer"; k; v ] -> { p with layers = (k, f v) :: p.layers }
        | [ "pass"; wall; mwords; spans_s; rss_mb ] ->
            {
              p with
              wall = f wall;
              mwords = f mwords;
              spans_s = f spans_s;
              rss_mb = f rss_mb;
            }
        | l -> fail "unexpected line from a pass: %s" (String.concat " " l))
      p lines
  in
  { p with cells = Array.of_list (List.rev !cells) }

(* {1 Host speed}

   The host's speed drifts over minutes by more than any bound a
   benchmark could keep, so host times are scaled to the speed at which
   the probe takes [nominal_probe_s]: each pass's wall time by the
   probes run just before and after the pass, set-up time by all of the
   run's probes.  The probe is a program of its own, started with fixed
   GC parameters: nothing the program under test links or sets reaches
   it.  A workload whose passes keep several domains busy is probed with
   as many probes at once, and a sample is their mean time: such a pass
   slows with every core it runs on, and its domains wait for each other
   at every minor collection.  The raw figures are printed beside the
   scaled ones. *)

let nominal_probe_s = 0.08
let probes_per_gap = 3

let host_probe ~domains =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat "hostprobe" "hostprobe.exe")
  in
  let probes =
    List.init domains (fun _ ->
        Unix.open_process_args_full exe [| exe |]
          [| "OCAMLRUNPARAM=s=256k,o=120" |])
  in
  let times =
    List.map
      (fun ((ic, _, _) as p) ->
        let line = In_channel.input_all ic in
        match
          (Unix.close_process_full p, float_of_string_opt (String.trim line))
        with
        | Unix.WEXITED 0, Some s when s > 0.0 -> s
        | _ -> fail "the host-speed probe (%s) failed" exe)
      probes
  in
  List.fold_left ( +. ) 0.0 times /. float_of_int domains

(* {1 The run} *)

(* Cells that fail: an escaped exception or an invariant violation, a
   digest that differs from the first pass's, or at the default seed
   from the reference. *)
let failures ~first p =
  let check_reference = !seed = Workloads.default_seed in
  if Array.length p.cells <> Array.length first then
    [ "the passes ran different cells" ]
  else
    Array.to_list p.cells
    |> List.mapi (fun i c ->
           match c.Cell.error with
           | Some e -> Some e
           | None ->
               if c.Cell.digest <> first.(i).Cell.digest then
                 Some (c.Cell.name ^ ": digest differs between passes")
               else if
                 check_reference
                 && List.assoc_opt c.Cell.name Reference.digests
                    <> Some c.Cell.digest
               then Some (c.Cell.name ^ ": digest differs from the reference")
               else None)
    |> List.filter_map Fun.id

(* What tracing costs: each traced pass against the mean of the
   untraced passes run just before and after it, so that a slow phase
   of the host falls on both sides of the difference.  Passes are traced
   in the order untraced, traced, traced, untraced, so that every traced
   pass follows an untraced one as often as it precedes one: on the host
   the baseline was taken on, a process run right after another is
   often a few percent slower or faster than the one before it, every
   other time. *)
let trace_overhead passes =
  let a = Array.of_list passes in
  let n = Array.length a in
  List.init n Fun.id
  |> List.filter_map (fun i ->
         if not a.(i).traced then None
         else
           let near =
             List.filter
               (fun j -> j >= 0 && j < n && not a.(j).traced)
               [ i - 1; i + 1 ]
           in
           if near = [] then None
           else
             let base =
               List.fold_left (fun s j -> s +. a.(j).wall) 0.0 near
               /. float_of_int (List.length near)
             in
             Some (a.(i).wall -. base))
  |> median

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", " body)

let measure (w : Workloads.t) =
  let tracing = !trace = 1 in
  let start = now () in
  let passes = ref [] and n = ref 0 in
  let longest = ref 0.0 in
  let setups = ref [] in
  let sample_setups k =
    for _ = 1 to k do
      setups := (spawn ~mode:"--setup-probe" ~traced:false).setup_s :: !setups
    done
  in
  let gaps = ref [] in
  let probe_gap () =
    gaps :=
      List.init probes_per_gap (fun _ -> host_probe ~domains:w.Workloads.domains)
      :: !gaps
  in
  (* Start another pass while it should end within the budget.  Before
     each pass come a batch of set-up samples, so that no one phase of a
     noisy host decides their median, and a gap of host-speed probes;
     another gap follows the last pass. *)
  while !n < min_passes || now () -. start +. !longest <= !seconds do
    let t0 = now () in
    sample_setups (min setup_batch (setup_samples - List.length !setups));
    probe_gap ();
    passes :=
      spawn ~mode:"--pass"
        ~traced:(tracing && (!n mod 4 = 1 || !n mod 4 = 2))
      :: !passes;
    longest := Float.max !longest (now () -. t0);
    incr n
  done;
  probe_gap ();
  let passes = List.rev !passes in
  sample_setups (setup_samples - List.length passes - List.length !setups);
  (* Pass i ran between probe gaps i and i + 1. *)
  let gaps = Array.of_list (List.rev !gaps) in
  let passes =
    List.mapi
      (fun i p ->
        let probe_s = median (gaps.(i) @ gaps.(i + 1)) in
        { p with wall = p.wall *. nominal_probe_s /. probe_s; raw_wall = p.wall })
      passes
  in
  let probe_median = median (List.concat (Array.to_list gaps)) in
  let setup_raw = median (List.map (fun p -> p.setup_s) passes @ !setups) in
  let first = (List.hd passes).cells in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun p ->
      let f = failures ~first p in
      List.iter (fun e -> Printf.printf "FAIL %s\n" e) f;
      attempted := !attempted + Array.length p.cells;
      failed := !failed + List.length f)
    passes;
  let plain = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let wall = median (List.map (fun p -> p.wall) plain) in
  let virtual_s =
    Array.fold_left (fun a c -> a +. c.Cell.virtual_s) 0.0 first
  in
  Printf.printf "workload %s, seed %d: %d passes (%d traced) of %d cells\n"
    w.Workloads.name !seed (List.length passes) (List.length traced)
    (Array.length first);
  Printf.printf "pass wall times (s), raw: %s\n"
    (String.concat " "
       (List.map
          (fun p ->
            Printf.sprintf "%.3f%s" p.raw_wall (if p.traced then "t" else ""))
          passes));
  Printf.printf
    "host-speed probe: median %.4f s over %d samples (nominal %.2f s); raw \
     median wall %.4f s, raw set-up %.6f s\n"
    probe_median
    (Array.fold_left (fun a g -> a + List.length g) 0 gaps)
    nominal_probe_s
    (median (List.map (fun p -> p.raw_wall) plain))
    setup_raw;
  Printf.printf "cell_fail_ratio %.6f (%d failed of %d attempted cells)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !failed !attempted;
  let med f ps = median (List.map f ps) in
  let metrics =
    if not tracing then
      [
        ("wall_s", wall);
        ("sim_s_per_wall_s", virtual_s /. wall);
        ("peak_rss_mb", med (fun p -> p.rss_mb) plain);
        ("alloc_mwords", med (fun p -> p.mwords) plain);
        ("setup_s", setup_raw *. nominal_probe_s /. probe_median);
      ]
      |> List.map (fun (name, v) ->
             (name, List.assoc name Catalogue.end_to_end, v))
    else begin
      let overhead = trace_overhead passes in
      let layer key =
        med
          (fun p -> Option.value ~default:0.0 (List.assoc_opt key p.layers))
          traced
      in
      let derived =
        [
          ("sim.virtual_s", virtual_s);
          ("trace.overhead_s", overhead);
          ( "trace.layer_coverage",
            med
              (fun p ->
                p.spans_s
                /. Array.fold_left (fun a c -> a +. c.Cell.host_s) 0.0 p.cells)
              traced );
        ]
      in
      Printf.printf
        "tracing overhead %.6f s (traced passes against their untraced \
         neighbours; untraced median %.6f s)\n"
        overhead wall;
      List.map
        (fun (name, unit) ->
          ( name,
            unit,
            match List.assoc_opt name derived with
            | Some v -> v
            | None -> layer name ))
        Catalogue.per_layer
    end
  in
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-40s %18.6f %s\n" name v unit)
    metrics;
  print_result ~attempted:!attempted ~failed:!failed metrics

let () =
  Arg.parse spec
    (fun a -> fail "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        fail "unknown workload %S (one of: %s)" !workload
          (String.concat ", " Workloads.names)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !setup_probe then begin
    let (_ : Workloads.pass) = w.Workloads.setup ~seed:!seed in
    Printf.printf "setup\t%.17g\n" (now ())
  end
  else if !child then run_pass w ~traced:(!trace = 1)
  else if !print_digests then begin
    let cells, _ = w.Workloads.setup ~seed:!seed ~trace:false in
    Array.iter
      (fun c ->
        Printf.printf "    (%S, %S);\n" c.Cell.name c.Cell.digest;
        Option.iter prerr_endline c.Cell.error)
      cells
  end
  else measure w
