type probe = ..
type probe += No_probe

type t = {
  name : string;
  kind : Gc_config.kind;
  alloc : size:int -> int;
  alloc_old : size:int -> int;
  system_gc : unit -> unit;
  tick : dt_us:float -> unit;
  mutator_factor : unit -> float;
  mutator_tax : unit -> float * float;
  write_ref : parent:int -> child:int -> unit;
  remove_ref : parent:int -> child:int -> unit;
  heap_used : unit -> int;
  heap_capacity : unit -> int;
  young_used : unit -> int;
  old_used : unit -> int;
  apply_policy : unit -> unit;
  store : Gcperf_heap.Obj_store.t;
  check_invariants : unit -> (unit, string) result;
  probe : probe;
}
