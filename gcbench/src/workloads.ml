(* The benchmark's workloads.  [setup ~seed] does the set-up a run pays
   once (machine model, seeded inputs) and returns the pass: a function
   that runs every cell once and returns the cells' outcomes with the
   pass's layer accounting. *)

type pass = trace:bool -> Cell.t array * Layers.t

type t = {
  name : string;
  domains : int;  (** domains a pass keeps busy *)
  setup : seed:int -> pass;
}

let all =
  [
    { name = "dacapo-ladder"; domains = 1; setup = Ladder.setup };
    { name = "kv-pauseless"; domains = Kv.default_domains (); setup = Kv.setup };
    { name = "client-tail"; domains = 1; setup = Client_tail.setup };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all

(* The seed the registry's experiments use: at it the reference digests
   hold. *)
let default_seed = Gcperf.Exp_common.seed
