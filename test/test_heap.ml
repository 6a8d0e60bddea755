(* Tests for the heap substrate: object store, generational layout with
   card table, and the G1 region layout with remembered sets. *)

module Vec = Gcperf_util.Int_vec
module Os = Gcperf_heap.Obj_store
module Gh = Gcperf_heap.Gen_heap
module Rh = Gcperf_heap.Region_heap

let mb = 1024 * 1024

(* --- Obj_store ------------------------------------------------------ *)

let test_store_alloc_free () =
  let s = Os.create () in
  let a = Os.alloc s ~size:100 ~loc:Os.Eden in
  let b = Os.alloc s ~size:200 ~loc:Os.Old in
  Alcotest.(check int) "live" 2 (Os.live_count s);
  Alcotest.(check bool) "a live" true (Os.is_live s a);
  Os.free s a;
  Alcotest.(check bool) "a freed" false (Os.is_live s a);
  Alcotest.(check int) "live after free" 1 (Os.live_count s);
  Alcotest.(check bool) "b untouched" true (Os.is_live s b)

let test_store_recycles_slots () =
  let s = Os.create () in
  let a = Os.alloc s ~size:10 ~loc:Os.Eden in
  Os.free s a;
  let b = Os.alloc s ~size:20 ~loc:Os.Eden in
  Alcotest.(check int) "slot reused" a b;
  Alcotest.(check int) "capacity stable" 1 (Os.capacity s);
  Alcotest.(check int) "fresh size" 20 (Os.size s b);
  Alcotest.(check int) "fresh age" 0 (Os.age s b);
  Alcotest.(check int) "no stale refs" 0 (Os.ref_count s b)

let test_store_double_free () =
  let s = Os.create () in
  let a = Os.alloc s ~size:10 ~loc:Os.Eden in
  Os.free s a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Obj_store.free: double free") (fun () -> Os.free s a)

let test_store_stale_get () =
  let s = Os.create () in
  let a = Os.alloc s ~size:10 ~loc:Os.Eden in
  Os.free s a;
  Alcotest.check_raises "stale get"
    (Invalid_argument "Obj_store.get: stale id") (fun () ->
      Os.check_live s a)

let test_store_refs () =
  let s = Os.create () in
  let a = Os.alloc s ~size:10 ~loc:Os.Eden in
  let b = Os.alloc s ~size:10 ~loc:Os.Eden in
  Os.add_ref s ~from:a ~to_:b;
  Os.add_ref s ~from:a ~to_:b;
  Alcotest.(check int) "two refs" 2 (Os.ref_count s a);
  Os.remove_ref s ~from:a ~to_:b;
  Alcotest.(check int) "one removed" 1 (Os.ref_count s a);
  Os.set_refs s a [||];
  Alcotest.(check int) "cleared" 0 (Os.ref_count s a)

let test_store_live_ids () =
  let s = Os.create () in
  let a = Os.alloc s ~size:1 ~loc:Os.Eden in
  let b = Os.alloc s ~size:1 ~loc:Os.Eden in
  let c = Os.alloc s ~size:1 ~loc:Os.Eden in
  Os.free s b;
  Alcotest.(check (list int)) "live ids" [ a; c ] (Vec.to_list (Os.live_ids s))

(* --- SoA store vs reference model ----------------------------------- *)

(* The struct-of-arrays columns and the CSR edge arena (slice relocation,
   slot recycling, arena rebuild) must be observationally equivalent to
   the obvious record-per-object implementation under any interleaving of
   mutator operations.  The model mirrors [remove_ref]'s swap-with-last
   exactly: reference *order* is part of the contract, since trace
   discovery order (and every artifact downstream) depends on it. *)
type model_obj = {
  mutable m_size : int;
  mutable m_loc : Os.location;
  mutable m_refs : int array;
}

let prop_store_model =
  QCheck.Test.make ~name:"SoA store matches a record-based model" ~count:300
    QCheck.(list (triple (int_bound 5) (int_bound 999) (int_bound 999)))
    (fun ops ->
      let s = Os.create () in
      let model : (int, model_obj) Hashtbl.t = Hashtbl.create 64 in
      let live = ref [] in
      let pick n = List.nth !live (n mod List.length !live) in
      let model_young id =
        match Hashtbl.find_opt model id with
        | Some { m_loc = Os.Eden | Os.Survivor; _ } -> true
        | Some _ | None -> false
      in
      List.iter
        (fun (tag, a, b) ->
          match tag with
          | 0 ->
              let size = (a mod 1000) + 1 in
              let loc =
                match b mod 4 with
                | 0 -> Os.Eden
                | 1 -> Os.Survivor
                | 2 -> Os.Old
                | _ -> Os.Region (b mod 8)
              in
              let id = Os.alloc s ~size ~loc in
              Hashtbl.replace model id
                { m_size = size; m_loc = loc; m_refs = [||] };
              live := id :: !live
          | 1 when !live <> [] ->
              let id = pick a in
              Os.free s id;
              let m = Hashtbl.find model id in
              m.m_loc <- Os.Nowhere;
              m.m_refs <- [||];
              live := List.filter (fun x -> x <> id) !live
          | 2 when !live <> [] ->
              let from = pick a and to_ = pick b in
              Os.add_ref s ~from ~to_;
              let m = Hashtbl.find model from in
              m.m_refs <- Array.append m.m_refs [| to_ |]
          | 3 when !live <> [] ->
              let from = pick a and to_ = pick b in
              Os.remove_ref s ~from ~to_;
              let m = Hashtbl.find model from in
              let n = Array.length m.m_refs in
              let rec find i =
                if i >= n then -1
                else if m.m_refs.(i) = to_ then i
                else find (i + 1)
              in
              let i = find 0 in
              if i >= 0 then begin
                let refs = Array.sub m.m_refs 0 (n - 1) in
                if i < n - 1 then refs.(i) <- m.m_refs.(n - 1);
                m.m_refs <- refs
              end
          | 4 when !live <> [] ->
              let from = pick a in
              let refs = Array.init (b mod 5) (fun i -> pick (a + i)) in
              Os.set_refs s from refs;
              (Hashtbl.find model from).m_refs <- Array.copy refs
          | 5 when !live <> [] ->
              (* The incremental young-ref counter may drift when children
                 die; [recount_young_refs] resynchronises it, after which
                 it must equal the model's on-demand count. *)
              let id = pick a in
              Os.recount_young_refs s id;
              let m = Hashtbl.find model id in
              let expect =
                Array.fold_left
                  (fun acc r -> if model_young r then acc + 1 else acc)
                  0 m.m_refs
              in
              if Os.young_refs s id <> expect then
                QCheck.Test.fail_reportf "young_refs %d: store %d model %d" id
                  (Os.young_refs s id) expect
          | _ -> ())
        ops;
      let sorted_live = List.sort compare !live in
      if Os.live_count s <> List.length !live then
        QCheck.Test.fail_report "live_count mismatch";
      if Vec.to_list (Os.live_ids s) <> sorted_live then
        QCheck.Test.fail_report "live_ids mismatch";
      List.iter
        (fun id ->
          let m = Hashtbl.find model id in
          if Os.size s id <> m.m_size then
            QCheck.Test.fail_reportf "size mismatch for %d" id;
          if Os.loc s id <> m.m_loc then
            QCheck.Test.fail_reportf "loc mismatch for %d" id;
          if Os.refs_list s id <> Array.to_list m.m_refs then
            QCheck.Test.fail_reportf "refs mismatch for %d" id)
        sorted_live;
      true)

(* --- trace kernel ----------------------------------------------------- *)

(* Seeded graphs from an LCG: cycles, duplicate edges, dangling
   references to freed objects, every location kind. *)
let build_trace_graph seed0 =
  let s = Os.create () in
  let state = ref (seed0 land 0x3FFFFFFF) in
  let rand n =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod n
  in
  let n = 200 + rand 200 in
  let ids =
    Array.init n (fun _ ->
        let loc =
          match rand 5 with
          | 0 -> Os.Eden
          | 1 -> Os.Survivor
          | 2 -> Os.Old
          | 3 -> Os.Region (rand 4)
          | _ -> Os.Region (4 + rand 4)
        in
        Os.alloc s ~size:(1 + rand 512) ~loc)
  in
  Array.iter
    (fun id ->
      for _ = 1 to rand 5 do
        Os.add_ref s ~from:id ~to_:ids.(rand n)
      done)
    ids;
  (* Free a slice so traces meet dangling references and recycled slots. *)
  Array.iter (fun id -> if rand 10 = 0 then Os.free s id) ids;
  let seeds =
    Array.to_list ids
    |> List.filter (fun id -> Os.is_live s id && rand 3 = 0)
  in
  (s, seeds)

(* [finish_trace] must mark exactly the closure of the seeds under the
   predicate, as a naive worklist walk over [refs_list] computes it, with
   each id recorded once and the stack drained. *)
let prop_trace_reference =
  QCheck.Test.make ~count:60
    ~name:"finish_trace marks the reference closure"
    (QCheck.int_bound 1_000_000)
    (fun seed0 ->
      let flags = Array.init 8 (fun i -> i mod 2 = seed0 mod 2) in
      let admits pred s c =
        match (pred, Os.loc s c) with
        | Os.Trace_young, l -> Os.is_young_loc l
        | Os.Trace_live, l -> not (Os.is_nowhere_loc l)
        | Os.Trace_regions rs, Os.Region r -> rs.(r)
        | Os.Trace_regions _, _ -> false
      in
      let reference pred s seeds =
        let seen = Hashtbl.create 64 and work = Stack.create () in
        let visit c =
          if not (Hashtbl.mem seen c) then begin
            Hashtbl.replace seen c ();
            Stack.push c work
          end
        in
        List.iter visit seeds;
        while not (Stack.is_empty work) do
          List.iter
            (fun c -> if admits pred s c then visit c)
            (Os.refs_list s (Stack.pop work))
        done;
        List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen))
      in
      List.for_all
        (fun pred ->
          let s, seeds = build_trace_graph seed0 in
          let marked = Vec.create () and stack = Vec.create () in
          Os.begin_trace s;
          List.iter
            (fun id ->
              if not (Os.is_marked s id) then begin
                Os.mark s id;
                Vec.push marked id;
                Vec.push stack id
              end)
            seeds;
          Os.finish_trace s ~pred ~marked ~stack;
          let got = Vec.to_list marked in
          Vec.length stack = 0
          && List.sort compare got = reference pred s seeds
          && List.length (List.sort_uniq compare got) = List.length got
          && List.for_all (Os.is_marked s) got)
        [ Os.Trace_young; Os.Trace_live; Os.Trace_regions flags ])

(* --- relocation kernel ------------------------------------------------ *)

(* [finish_relocate] must leave every live object exactly where applying
   each plan entry with [set_loc]/[set_age] puts it.  Two stores built
   from one seed are identical; one moves through the kernel, the other
   by hand. *)
let prop_relocate_reference =
  QCheck.Test.make ~count:60
    ~name:"finish_relocate applies the plan entries"
    (QCheck.int_bound 1_000_000)
    (fun seed0 ->
      let moves s =
        let state = ref ((seed0 * 31) land 0x3FFFFFFF) in
        let rand n =
          state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
          !state mod n
        in
        let acc = ref [] in
        Os.iter_live s (fun id ->
            let move =
              match rand 6 with
              | 0 -> Some (Os.Old, Os.age s id)
              | 1 -> Some (Os.Survivor, Os.age s id + 1)
              | 2 -> Some (Os.Eden, 0)
              | 3 ->
                  let r = rand 8 in
                  Some (Os.Region r, rand 16)
              | _ -> None
            in
            Option.iter (fun (loc, age) -> acc := (id, loc, age) :: !acc) move);
        List.rev !acc
      in
      let snapshot s =
        let acc = ref [] in
        Os.iter_live s (fun id ->
            acc := (id, Os.loc_code s id, Os.age s id) :: !acc);
        !acc
      in
      let s_kernel, _ = build_trace_graph seed0 in
      let s_ref, _ = build_trace_graph seed0 in
      let plan = moves s_kernel in
      Os.plan_clear s_kernel;
      List.iter
        (fun (id, loc, age) ->
          match loc with
          | Os.Old -> Os.plan_push_old s_kernel id ~age
          | Os.Survivor -> Os.plan_push_survivor s_kernel id ~age
          | Os.Eden -> Os.plan_push_eden s_kernel id ~age
          | Os.Region region -> Os.plan_push_region s_kernel id ~region ~age
          | Os.Nowhere -> assert false)
        plan;
      List.iter
        (fun (id, loc, age) ->
          Os.set_loc s_ref id loc;
          Os.set_age s_ref id age)
        plan;
      let moved = Os.finish_relocate s_kernel in
      moved = List.length plan
      && Os.plan_length s_kernel = 0
      && snapshot s_kernel = snapshot s_ref)

(* --- Gen_heap ------------------------------------------------------- *)

let make_gen () =
  let s = Os.create () in
  (s, Gh.create s ~heap_bytes:(100 * mb) ~young_bytes:(20 * mb) ())

let test_gen_layout () =
  let _, h = make_gen () in
  (* SurvivorRatio 8: eden = 8/10 young, survivors = 1/10 each. *)
  Alcotest.(check int) "eden" (16 * mb) h.Gh.eden_cap;
  Alcotest.(check int) "survivor" (2 * mb) h.Gh.survivor_cap;
  Alcotest.(check int) "old" (80 * mb) h.Gh.old_cap

let test_gen_bad_config () =
  let s = Os.create () in
  Alcotest.check_raises "young > heap"
    (Invalid_argument "Gen_heap.create: young generation larger than heap")
    (fun () -> ignore (Gh.create s ~heap_bytes:10 ~young_bytes:20 ()))

let test_gen_alloc_eden () =
  let _, h = make_gen () in
  (match Gh.alloc_eden h ~size:mb with
  | Some _ -> ()
  | None -> Alcotest.fail "eden alloc failed");
  Alcotest.(check int) "eden used" mb h.Gh.eden_used;
  Alcotest.(check int) "allocated counter" mb h.Gh.allocated_bytes;
  (* Fill it up. *)
  (match Gh.alloc_eden h ~size:(15 * mb) with
  | Some _ -> ()
  | None -> Alcotest.fail "should fit");
  Alcotest.(check bool) "now full" true (Gh.alloc_eden h ~size:mb = None)

let test_gen_alloc_old_direct () =
  let _, h = make_gen () in
  (match Gh.alloc_old_direct h ~size:(50 * mb) with
  | Some _ -> ()
  | None -> Alcotest.fail "old alloc failed");
  Alcotest.(check int) "old used" (50 * mb) h.Gh.old_used;
  Alcotest.(check bool) "old overflow rejected" true
    (Gh.alloc_old_direct h ~size:(40 * mb) = None)

let test_gen_card_table () =
  let s, h = make_gen () in
  let young = Option.get (Gh.alloc_eden h ~size:mb) in
  let old = Option.get (Gh.alloc_old_direct h ~size:mb) in
  (* young -> old: no card. *)
  Gh.record_store h ~parent:young ~child:old;
  Alcotest.(check int) "no card for young->old" 0 (Gh.dirty_count h);
  (* old -> young: card. *)
  Gh.record_store h ~parent:old ~child:young;
  Alcotest.(check bool) "card for old->young" true (Gh.card_is_dirty h old);
  (* Removing the young ref does not clean the card (card-table
     semantics)... *)
  Gh.remove_store h ~parent:old ~child:young;
  Alcotest.(check bool) "card sticky until refresh" true
    (Gh.card_is_dirty h old);
  (* ...but the next collection's refresh retires it. *)
  Gh.refresh_cards h ~extra:(Vec.create ());
  Alcotest.(check bool) "card retired by refresh" false
    (Gh.card_is_dirty h old);
  Alcotest.(check int) "no entries after refresh" 0 (Gh.dirty_count h);
  ignore s

let test_gen_invariants () =
  let _, h = make_gen () in
  ignore (Gh.alloc_eden h ~size:mb);
  ignore (Gh.alloc_old_direct h ~size:(2 * mb));
  (match Gh.check_invariants h with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Corrupt the accounting on purpose: the check must catch it. *)
  h.Gh.old_used <- h.Gh.old_used + 1;
  Alcotest.(check bool) "corruption detected" true
    (Result.is_error (Gh.check_invariants h))

let test_gen_compact_registries () =
  let s, h = make_gen () in
  let a = Option.get (Gh.alloc_eden h ~size:mb) in
  let _b = Option.get (Gh.alloc_eden h ~size:mb) in
  Os.free s a;
  h.Gh.eden_used <- h.Gh.eden_used - mb;
  Alcotest.(check int) "registry has stale id" 2 (Vec.length h.Gh.young_ids);
  Gh.compact_registries h;
  Alcotest.(check int) "stale dropped" 1 (Vec.length h.Gh.young_ids)

let prop_gen_accounting =
  (* Random eden/old allocations and frees keep accounting exact. *)
  QCheck.Test.make ~name:"gen heap accounting stays exact" ~count:100
    QCheck.(list (pair bool (int_range 1 (2 * mb))))
    (fun ops ->
      let s = Os.create () in
      let h = Gh.create s ~heap_bytes:(64 * mb) ~young_bytes:(16 * mb) () in
      let live = ref [] in
      List.iter
        (fun (to_old, size) ->
          let res =
            if to_old then Gh.alloc_old_direct h ~size
            else Gh.alloc_eden h ~size
          in
          match res with
          | Some id -> live := (id, to_old, size) :: !live
          | None -> (
              (* Free something to make room, mimicking a collection. *)
              match !live with
              | (id, was_old, sz) :: rest ->
                  Os.free s id;
                  if was_old then h.Gh.old_used <- h.Gh.old_used - sz
                  else h.Gh.eden_used <- h.Gh.eden_used - sz;
                  live := rest
              | [] -> ()))
        ops;
      Result.is_ok (Gh.check_invariants h))

(* --- Region_heap ---------------------------------------------------- *)

let make_region () =
  let s = Os.create () in
  (* 64 MB heap in 1 MB regions. *)
  (s, Rh.create s ~heap_bytes:(64 * mb) ~target_regions:64 ())

let test_region_create () =
  let _, r = make_region () in
  Alcotest.(check int) "region size" mb r.Rh.region_size;
  Alcotest.(check int) "64 regions" 64 (Array.length r.Rh.regions);
  Alcotest.(check int) "all free" 64 (Rh.free_regions r)

let test_region_alloc_young () =
  let _, r = make_region () in
  (match Rh.alloc_young r ~size:(mb / 2) with
  | Some _ -> ()
  | None -> Alcotest.fail "young alloc failed");
  Alcotest.(check int) "one eden region" 1 (Rh.count_kind r Rh.Eden);
  (* Spills into a second region when the first fills. *)
  (match Rh.alloc_young r ~size:(3 * mb / 4) with
  | Some _ -> ()
  | None -> Alcotest.fail "spill failed");
  Alcotest.(check int) "two eden regions" 2 (Rh.count_kind r Rh.Eden);
  Alcotest.(check bool) "invariants" true (Result.is_ok (Rh.check_invariants r))

let test_region_humongous () =
  let _, r = make_region () in
  Alcotest.(check bool) "humongous rule" true (Rh.is_humongous r ~size:(mb / 2 + 1));
  Alcotest.(check bool) "small is not" false (Rh.is_humongous r ~size:(mb / 4));
  let id =
    match Rh.alloc_humongous r ~size:(3 * mb + 100) with
    | Some id -> id
    | None -> Alcotest.fail "humongous alloc failed"
  in
  Alcotest.(check int) "4 regions claimed" 4 (Rh.count_kind r Rh.Humongous);
  Alcotest.(check bool) "invariants with humongous" true
    (Result.is_ok (Rh.check_invariants r));
  Rh.release_humongous r id;
  Alcotest.(check int) "all free again" 64 (Rh.free_regions r);
  Alcotest.(check bool) "invariants after release" true
    (Result.is_ok (Rh.check_invariants r))

let test_region_humongous_contiguous () =
  let _, r = make_region () in
  (* Claim regions 0 and 2, leaving a 1-region hole at 1: a 2-region
     humongous group must skip the hole. *)
  Rh.set_kind r r.Rh.regions.(0) Rh.Old_region;
  Rh.set_kind r r.Rh.regions.(2) Rh.Old_region;
  Alcotest.(check int) "holes leave the free pool" 62 (Rh.free_regions r);
  let id = Option.get (Rh.alloc_humongous r ~size:(2 * mb)) in
  (match Os.loc r.Rh.store id with
  | Os.Region idx ->
      Alcotest.(check bool) "starts after the hole" true (idx >= 3)
  | _ -> Alcotest.fail "not region-allocated");
  Rh.set_kind r r.Rh.regions.(0) Rh.Free;
  Rh.set_kind r r.Rh.regions.(2) Rh.Free;
  Alcotest.(check bool) "invariants after the holes close" true
    (Result.is_ok (Rh.check_invariants r))

let test_region_remset () =
  let s, r = make_region () in
  let a = Option.get (Rh.alloc_young r ~size:1000) in
  (* Force b into another region. *)
  let reg = Option.get (Rh.take_free_region r Rh.Old_region) in
  let b = Option.get (Rh.alloc_in_region r reg ~size:1000) in
  Rh.record_store r ~parent:a ~child:b;
  let rb = Rh.region_of r b in
  ignore s;
  Alcotest.(check bool) "cross-region remset entry" true
    (Hashtbl.mem rb.Rh.remset a);
  (* Same-region stores do not pollute the remset. *)
  let c = Option.get (Rh.alloc_in_region r reg ~size:1000) in
  Rh.record_store r ~parent:b ~child:c;
  Alcotest.(check bool) "no same-region entry" false
    (Hashtbl.mem rb.Rh.remset b)

let test_region_release () =
  let s, r = make_region () in
  let a = Option.get (Rh.alloc_young r ~size:1000) in
  let reg = Rh.region_of r a in
  Rh.release_region r reg;
  Alcotest.(check bool) "object freed" false (Os.is_live s a);
  Alcotest.(check int) "region free" 64 (Rh.free_regions r);
  Alcotest.(check bool) "invariants" true (Result.is_ok (Rh.check_invariants r))

let prop_region_invariants =
  QCheck.Test.make ~name:"region heap invariants under random traffic"
    ~count:60
    QCheck.(list (int_range 1 (2 * mb)))
    (fun sizes ->
      let s = Os.create () in
      let r = Rh.create s ~heap_bytes:(32 * mb) ~target_regions:32 () in
      List.iter
        (fun size ->
          if Rh.is_humongous r ~size then begin
            match Rh.alloc_humongous r ~size with
            | Some id when size mod 3 = 0 -> Rh.release_humongous r id
            | Some _ | None -> ()
          end
          else begin
            match Rh.alloc_young r ~size with
            | Some _ -> ()
            | None ->
                (* Release every eden region, as a young collection with
                   no survivors would. *)
                List.iter (fun reg -> Rh.release_region r reg) (Rh.eden_regions r)
          end)
        sizes;
      Result.is_ok (Rh.check_invariants r))

(* The per-kind occupancy counters against reference folds over the
   region table, after every step of a long random operation sequence
   (every writer of a region's [kind] and [used] is exercised, including
   the [add_used] moves an evacuation plan makes). *)
let prop_region_counters =
  let kinds = [| Rh.Free; Rh.Eden; Rh.Survivor; Rh.Old_region; Rh.Humongous |] in
  let fold t pred =
    Array.fold_left
      (fun acc r -> if pred r.Rh.kind then acc + r.Rh.used else acc)
      0 t.Rh.regions
  in
  let counters_exact t =
    fold t (fun _ -> true) = Rh.heap_used t
    && fold t (function Rh.Eden | Rh.Survivor -> true | _ -> false)
       = Rh.used_young t
    && fold t (function Rh.Old_region | Rh.Humongous -> true | _ -> false)
       = Rh.used_old_hum t
    && Array.for_all
         (fun k ->
           fold t (fun k' -> k' = k) = Rh.used_of_kind t k
           && Array.fold_left
                (fun acc r -> if r.Rh.kind = k then acc + 1 else acc)
                0 t.Rh.regions
              = Rh.count_kind t k)
         kinds
    && Rh.count_kind t Rh.Free = Rh.free_regions t
    && Result.is_ok (Rh.check_invariants t)
  in
  let op = QCheck.Gen.(triple (int_bound 8) (int_bound 1023) (int_bound 4095)) in
  QCheck.Test.make ~name:"region occupancy counters equal reference folds"
    ~count:20
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d operations>" (List.length ops))
       QCheck.Gen.(int_range 1000 1400 >>= fun n -> list_repeat n op))
    (fun ops ->
      let s = Os.create () in
      let t = Rh.create s ~heap_bytes:(32 * mb) ~target_regions:32 () in
      let n = Array.length t.Rh.regions in
      let humongous = ref [] in
      (* The [pick]-th region satisfying [pred], scanning from [pick]. *)
      let find pick pred =
        let rec go i =
          if i = n then None
          else
            let r = t.Rh.regions.((pick + i) mod n) in
            if pred r.Rh.kind then Some r else go (i + 1)
        in
        go 0
      in
      let small = function
        | Rh.Eden | Rh.Survivor | Rh.Old_region -> true
        | Rh.Free | Rh.Humongous -> false
      in
      let size_of x = 1 + (x * 97) in
      let step (code, pick, x) =
        match code with
        | 0 | 1 -> ignore (Rh.alloc_young t ~size:(size_of x))
        | 2 -> (
            match find pick small with
            | Some r -> ignore (Rh.alloc_in_region t r ~size:(size_of x))
            | None -> ())
        | 3 -> ignore (Rh.take_free_region t kinds.(1 + (x mod 3)))
        | 4 -> (
            if x mod 2 = 0 then
              match Rh.alloc_humongous t ~size:(mb / 2 + 1 + (x * 700)) with
              | Some id -> humongous := id :: !humongous
              | None -> ()
            else
              match !humongous with
              | id :: rest ->
                  Rh.release_humongous t id;
                  humongous := rest
              | [] -> ())
        | 5 -> Option.iter (Rh.release_region t) (find pick small)
        | 6 -> (
            (* A compaction that emptied the region before retiring it. *)
            match find pick small with
            | Some r ->
                Vec.iter
                  (fun id -> if Os.in_region s id r.Rh.idx then Os.free s id)
                  r.Rh.objects;
                Rh.retire_region t r
            | None -> ())
        | 7 -> (
            (* A role change of an occupied region moves its bytes. *)
            match find pick small with
            | Some r -> Rh.set_kind t r kinds.(1 + (x mod 3))
            | None -> ())
        | _ -> (
            (* An evacuation move: one object to another small region. *)
            match (find pick small, find (pick + 1 + x) small) with
            | Some src, Some dst when src.Rh.idx <> dst.Rh.idx -> (
                let live = ref None in
                Vec.iter
                  (fun id ->
                    if Os.in_region s id src.Rh.idx then live := Some id)
                  src.Rh.objects;
                match !live with
                | Some id
                  when dst.Rh.used + Os.size s id <= t.Rh.region_size ->
                    let size = Os.size s id in
                    Rh.add_used t src (-size);
                    Rh.add_used t dst size;
                    Os.set_loc s id (Os.Region dst.Rh.idx);
                    Vec.push dst.Rh.objects id
                | Some _ | None -> ())
            | _ -> ())
      in
      List.for_all
        (fun o ->
          step o;
          counters_exact t)
        ops)

let () =
  Alcotest.run "heap"
    [
      ( "obj_store",
        [
          Alcotest.test_case "alloc/free" `Quick test_store_alloc_free;
          Alcotest.test_case "slot recycling" `Quick test_store_recycles_slots;
          Alcotest.test_case "double free" `Quick test_store_double_free;
          Alcotest.test_case "stale get" `Quick test_store_stale_get;
          Alcotest.test_case "refs" `Quick test_store_refs;
          Alcotest.test_case "live ids" `Quick test_store_live_ids;
          QCheck_alcotest.to_alcotest prop_store_model;
          QCheck_alcotest.to_alcotest prop_trace_reference;
          QCheck_alcotest.to_alcotest prop_relocate_reference;
        ] );
      ( "gen_heap",
        [
          Alcotest.test_case "layout" `Quick test_gen_layout;
          Alcotest.test_case "bad config" `Quick test_gen_bad_config;
          Alcotest.test_case "eden alloc" `Quick test_gen_alloc_eden;
          Alcotest.test_case "old direct alloc" `Quick test_gen_alloc_old_direct;
          Alcotest.test_case "card table" `Quick test_gen_card_table;
          Alcotest.test_case "invariants" `Quick test_gen_invariants;
          Alcotest.test_case "registry compaction" `Quick test_gen_compact_registries;
          QCheck_alcotest.to_alcotest prop_gen_accounting;
        ] );
      ( "region_heap",
        [
          Alcotest.test_case "create" `Quick test_region_create;
          Alcotest.test_case "young alloc" `Quick test_region_alloc_young;
          Alcotest.test_case "humongous" `Quick test_region_humongous;
          Alcotest.test_case "humongous contiguity" `Quick test_region_humongous_contiguous;
          Alcotest.test_case "remset" `Quick test_region_remset;
          Alcotest.test_case "release" `Quick test_region_release;
          QCheck_alcotest.to_alcotest prop_region_invariants;
          QCheck_alcotest.to_alcotest prop_region_counters;
        ] );
    ]
