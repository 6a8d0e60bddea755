(** First-class collector interface.

    A collector owns its heap layout and exposes exactly the operations
    the runtime needs: allocate (collecting as required), honour a
    [System.gc()] request, make progress on concurrent phases as virtual
    time passes, report how much it is currently slowing the mutator
    down, and maintain remembered sets on reference writes. *)

type probe = ..
(** Collector-private state exposed for introspection.  Each collector
    module that offers [debug_stats] extends this type with a constructor
    carrying its own state, so the stats answer for exactly the collector
    asked and live only as long as it does. *)

type probe += No_probe

type t = {
  name : string;
  kind : Gc_config.kind;
  alloc : size:int -> int;
      (** Allocates an object, running young/full collections as needed.
          @raise Gc_ctx.Out_of_memory when even a full GC cannot make
          room. *)
  alloc_old : size:int -> int;
      (** Allocates directly in the old generation (tenured/old regions):
          bulk cache rebuilds and slab-allocated stores install long-lived
          data without churning the young generation.
          @raise Gc_ctx.Out_of_memory as for [alloc]. *)
  system_gc : unit -> unit;
      (** Forced full stop-the-world collection (DaCapo's inter-iteration
          System.gc()). *)
  tick : dt_us:float -> unit;
      (** Advance concurrent work (CMS marking/sweeping, G1 marking) by
          [dt_us] of virtual time. *)
  mutator_factor : unit -> float;
      (** >= 1; how much concurrent GC activity currently dilates mutator
          work (cores stolen by concurrent GC threads). *)
  mutator_tax : unit -> float * float;
      (** Attribution of the current [mutator_factor] as
          [(barrier, steal)], both >= 1: [barrier] is the mutator-tax
          component the collector charges on every quantum even with
          idle GC threads (read/SATB barriers, journal appends,
          backpressure throttling); [steal] is the core-stealing dilation
          from concurrent GC workers.  Read-only — implementations must
          not mutate collector state, and the product need only agree
          with [mutator_factor] up to rounding: the runtime uses
          [mutator_factor] alone to advance the clock and this hook only
          to split the already-charged tax for telemetry (the distilled
          cost accounting in [lib/distill]). *)
  write_ref : parent:int -> child:int -> unit;
      (** Reference store with the collector's write barrier. *)
  remove_ref : parent:int -> child:int -> unit;
  heap_used : unit -> int;
  heap_capacity : unit -> int;
  young_used : unit -> int;
  old_used : unit -> int;
      (** for G1: old + humongous regions *)
  apply_policy : unit -> unit;
      (** Consume the pending ergonomics decision, if any, and resize the
          heap layout within its occupancy constraints.  Called by the
          runtime only at safepoints ([Vm.step] quantum boundaries); a
          no-op when no policy is attached. *)
  store : Gcperf_heap.Obj_store.t;
  check_invariants : unit -> (unit, string) result;
  probe : probe;
}
