module Vec = Gcperf_util.Int_vec
module Bitset = Gcperf_util.Bitset

type region_kind = Free | Eden | Survivor | Old_region | Humongous

type region = {
  idx : int;
  mutable kind : region_kind;
  mutable used : int;
  objects : Vec.t;
  remset : (int, unit) Hashtbl.t;
  mutable live_bytes : int;
  mutable hum_len : int;
}

type t = {
  store : Obj_store.t;
  heap_bytes : int;
  region_size : int;
  regions : region array;
  mutable current_alloc : int;
  kind_used : int array;
  kind_count : int array;
  free_bits : Bitset.t;
      (* membership mirror of [kind = Free]: the allocator's find-first
         is a word scan instead of a region-table walk *)
  mutable young_target_bytes : int;
  mutable allocated_bytes : int;
  mutable promoted_bytes : int;
}

(* Pattern matches, not [r.kind = k]: generic compare on the variant
   would be a C call inside per-region loops. *)
let[@inline] is_free_kind = function
  | Free -> true
  | Eden | Survivor | Old_region | Humongous -> false

let[@inline] kind_index = function
  | Free -> 0
  | Eden -> 1
  | Survivor -> 2
  | Old_region -> 3
  | Humongous -> 4

let n_kinds = 5

(* [set_kind] and [add_used] are the only writers of a region's [kind]
   and [used]: together they keep [kind_used]/[kind_count] exact, so
   every occupancy read below is an array read instead of a fold over
   the region table (the pauseless collectors read heap occupancy on
   every allocation, and a 64 GB heap has 2048 regions).  The free
   bitset mirrors [kind = Free] for the allocator's word-scan
   find-first. *)
let set_kind t r kind =
  let a = kind_index r.kind and b = kind_index kind in
  if a <> b then begin
    t.kind_count.(a) <- t.kind_count.(a) - 1;
    t.kind_count.(b) <- t.kind_count.(b) + 1;
    t.kind_used.(a) <- t.kind_used.(a) - r.used;
    t.kind_used.(b) <- t.kind_used.(b) + r.used;
    if is_free_kind r.kind then Bitset.clear t.free_bits r.idx
    else if is_free_kind kind then Bitset.set t.free_bits r.idx
  end;
  r.kind <- kind

let[@inline] add_used t r delta =
  r.used <- r.used + delta;
  let k = kind_index r.kind in
  t.kind_used.(k) <- t.kind_used.(k) + delta

let set_live_bytes r bytes = r.live_bytes <- bytes

let mb = 1024 * 1024

let create store ~heap_bytes ?(target_regions = 1024) () =
  if heap_bytes <= 0 then invalid_arg "Region_heap.create: empty heap";
  let size = heap_bytes / target_regions in
  let region_size = max mb (min (32 * mb) size) in
  let n = max 8 (heap_bytes / region_size) in
  let regions =
    Array.init n (fun idx ->
        {
          idx;
          kind = Free;
          used = 0;
          objects = Vec.create ();
          remset = Hashtbl.create 16;
          live_bytes = 0;
          hum_len = 0;
        })
  in
  let free_bits = Bitset.create ~capacity:n () in
  for i = 0 to n - 1 do
    Bitset.set free_bits i
  done;
  {
    store;
    heap_bytes;
    region_size;
    regions;
    current_alloc = -1;
    kind_used = Array.make n_kinds 0;
    kind_count =
      Array.init n_kinds (fun k -> if k = kind_index Free then n else 0);
    free_bits;
    young_target_bytes = region_size;
    allocated_bytes = 0;
    promoted_bytes = 0;
  }

(* The young target is the adaptive knob G1 exposes: how many bytes of
   eden accumulate before a young collection.  Clamped to [one region,
   heap minus a small reserve] so the collector always has evacuation
   headroom.  Returns the target actually in effect. *)
let set_young_target t ~bytes =
  let n = Array.length t.regions in
  let reserve = max 2 (n / 10) in
  let max_target = (n - reserve) * t.region_size in
  let clamped = max t.region_size (min bytes max_target) in
  t.young_target_bytes <- clamped;
  clamped

let young_target_regions t =
  (t.young_target_bytes + t.region_size - 1) / t.region_size

let region_of t id =
  let r = Obj_store.region_index t.store id in
  if r < 0 then invalid_arg "Region_heap.region_of: object not in a region"
  else t.regions.(r)

let count_kind t k = t.kind_count.(kind_index k)

let used_of_kind t k = t.kind_used.(kind_index k)

let used_young t = used_of_kind t Eden + used_of_kind t Survivor

let used_old_hum t = used_of_kind t Old_region + used_of_kind t Humongous

let free_regions t = count_kind t Free

(* Read on every allocation by the pauseless collectors: an unrolled
   sum, not a closure call per kind. *)
let heap_used t =
  let u = t.kind_used in
  u.(0) + u.(1) + u.(2) + u.(3) + u.(4)

let take_free_region t kind =
  if free_regions t = 0 then None
  else begin
    let i = Bitset.next_set t.free_bits 0 in
    if i < 0 then None
    else begin
      let r = t.regions.(i) in
      add_used t r (-r.used);
      set_kind t r kind;
      r.live_bytes <- 0;
      Some r
    end
  end

let alloc_in_region t r ~size =
  if r.used + size > t.region_size then None
  else begin
    let id = Obj_store.alloc_region t.store ~size ~region:r.idx in
    add_used t r size;
    Vec.push r.objects id;
    t.allocated_bytes <- t.allocated_bytes + size;
    Some id
  end

let rec alloc_young t ~size =
  if size > t.region_size then
    invalid_arg "Region_heap.alloc_young: humongous object";
  if t.current_alloc >= 0 then begin
    let r = t.regions.(t.current_alloc) in
    match alloc_in_region t r ~size with
    | Some id -> Some id
    | None ->
        t.current_alloc <- -1;
        alloc_young t ~size
  end
  else begin
    match take_free_region t Eden with
    | None -> None
    | Some r ->
        t.current_alloc <- r.idx;
        alloc_young t ~size
  end

let is_humongous t ~size = size > t.region_size / 2

(* Humongous objects occupy a contiguous run of [ceil(size/region_size)]
   dedicated regions, as in G1.  The object id is recorded in the head
   region, which also remembers the group length; each region of the group
   carries its share of the bytes so per-region accounting stays exact. *)
let alloc_humongous t ~size =
  let needed = (size + t.region_size - 1) / t.region_size in
  let n = Array.length t.regions in
  (* First contiguous run of [needed] free regions. *)
  let rec find_run start =
    if start + needed > n then None
    else begin
      let rec check i =
        i >= needed || (is_free_kind t.regions.(start + i).kind && check (i + 1))
      in
      if check 0 then Some start else find_run (start + 1)
    end
  in
  match find_run 0 with
  | None -> None
  | Some start ->
      let head = t.regions.(start) in
      let id = Obj_store.alloc_region t.store ~size ~region:start in
      Vec.push head.objects id;
      head.hum_len <- needed;
      let remaining = ref size in
      for i = start to start + needed - 1 do
        let r = t.regions.(i) in
        set_kind t r Humongous;
        let chunk = min !remaining t.region_size in
        add_used t r (chunk - r.used);
        r.live_bytes <- chunk;
        remaining := !remaining - chunk
      done;
      t.allocated_bytes <- t.allocated_bytes + size;
      Some id

let release_humongous t id =
  Obj_store.check_live t.store id;
  match Obj_store.region_index t.store id with
  | start when start >= 0 ->
      let head = t.regions.(start) in
      if head.hum_len <= 0 then
        invalid_arg "Region_heap.release_humongous: not a humongous head";
      for i = start to start + head.hum_len - 1 do
        let r = t.regions.(i) in
        Vec.clear r.objects;
        Hashtbl.reset r.remset;
        add_used t r (-r.used);
        set_kind t r Free;
        r.live_bytes <- 0;
        r.hum_len <- 0
      done;
      Obj_store.free t.store id
  | _ -> invalid_arg "Region_heap.release_humongous: not region-allocated"

let record_store t ~parent ~child =
  Obj_store.add_ref t.store ~from:parent ~to_:child;
  let rp = Obj_store.region_index t.store parent
  and rc = Obj_store.region_index t.store child in
  if rp >= 0 && rc >= 0 && rp <> rc then
    Hashtbl.replace t.regions.(rc).remset parent ()

let remove_store t ~parent ~child =
  Obj_store.remove_ref t.store ~from:parent ~to_:child

let compact_region_objects t r =
  Vec.filter_in_place
    (fun id -> Obj_store.in_region t.store id r.idx)
    r.objects

let retire_region t r =
  Vec.clear r.objects;
  Hashtbl.reset r.remset;
  add_used t r (-r.used);
  set_kind t r Free;
  r.live_bytes <- 0;
  r.hum_len <- 0;
  if t.current_alloc = r.idx then t.current_alloc <- -1

let release_region t r =
  Vec.iter
    (fun id ->
      if Obj_store.in_region t.store id r.idx then Obj_store.free t.store id)
    r.objects;
  retire_region t r

let eden_regions t =
  Array.to_list t.regions
  |> List.filter (fun r -> match r.kind with Eden -> true | _ -> false)

let young_regions t =
  Array.to_list t.regions
  |> List.filter (fun r ->
         match r.kind with Eden | Survivor -> true | _ -> false)

let check_invariants t =
  (* Recompute per-region occupancy from the store; humongous groups put
     their bytes in dedicated regions, handled via the head region. *)
  let actual = Array.make (Array.length t.regions) 0 in
  let err = ref None in
  Obj_store.iter_live t.store (fun id ->
      match Obj_store.loc t.store id with
      | Obj_store.Region r ->
          if t.regions.(r).kind = Humongous then begin
            (* Spread over the group exactly as the allocator did. *)
            let remaining = ref (Obj_store.size t.store id) and idx = ref r in
            while !remaining > 0 do
              if
                !idx >= Array.length t.regions
                || t.regions.(!idx).kind <> Humongous
              then begin
                err := Some "humongous group truncated";
                remaining := 0
              end
              else begin
                let chunk = min !remaining t.region_size in
                actual.(!idx) <- actual.(!idx) + chunk;
                remaining := !remaining - chunk;
                incr idx
              end
            done
          end
          else actual.(r) <- actual.(r) + Obj_store.size t.store id
      | Obj_store.Eden | Obj_store.Survivor | Obj_store.Old | Obj_store.Nowhere
        ->
          ());
  match !err with
  | Some e -> Error e
  | None ->
      let bad = ref None in
      (* The per-kind counters against a fresh fold over the table. *)
      let used = Array.make n_kinds 0 and count = Array.make n_kinds 0 in
      Array.iter
        (fun r ->
          let k = kind_index r.kind in
          used.(k) <- used.(k) + r.used;
          count.(k) <- count.(k) + 1)
        t.regions;
      for k = n_kinds - 1 downto 0 do
        if count.(k) <> t.kind_count.(k) then
          bad :=
            Some
              (Printf.sprintf "kind %d count drift: tracked %d actual %d" k
                 t.kind_count.(k) count.(k))
        else if used.(k) <> t.kind_used.(k) then
          bad :=
            Some
              (Printf.sprintf "kind %d used drift: tracked %d actual %d" k
                 t.kind_used.(k) used.(k))
      done;
      Array.iteri
        (fun i r ->
          if !bad = None && Bitset.mem t.free_bits i <> is_free_kind r.kind
          then bad := Some (Printf.sprintf "free bit of region %d drifted" i))
        t.regions;
      Array.iteri
        (fun i r ->
          if !bad = None then begin
            if r.kind = Free && r.used <> 0 then
              bad := Some (Printf.sprintf "free region %d not empty" i)
            else if r.used <> actual.(i) then
              bad :=
                Some
                  (Printf.sprintf "region %d accounting: tracked %d actual %d"
                     i r.used actual.(i))
            else if r.kind <> Humongous && r.used > t.region_size then
              bad := Some (Printf.sprintf "region %d over-full" i)
          end)
        t.regions;
      (match !bad with Some e -> Error e | None -> Ok ())
