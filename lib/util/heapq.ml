(* Struct-of-arrays: an unboxed key column beside a payload column, so a
   push stores two words and allocates nothing once the columns have
   grown.  Payloads are kept as [Obj.t] so that a vacated slot can be
   reset to an immediate, which lets the GC reclaim a popped payload; an
   ['a array] would need some ['a] to fill it with.  The column is
   created from an immediate, so it is never a flat float array, and a
   payload round-trips through [Obj.repr]/[Obj.obj] unchanged. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : Obj.t array;
  mutable len : int;
}

let vacant = Obj.repr 0

(* Columns come in powers of two, the sizes doubling produces, even when
   pre-sized: the columns a finished session frees are then the size the
   next session asks for, and the allocator reuses them instead of
   growing the process. *)
let rec pow2_above c n = if c >= n then c else pow2_above (2 * c) n

let create ?(capacity = 0) () =
  let n = if capacity <= 0 then 0 else pow2_above 16 capacity in
  { keys = Array.make n 0; vals = Array.make n vacant; len = 0 }

let[@inline] length q = q.len

let[@inline] is_empty q = q.len = 0

let[@inline never] grow q =
  let cap = Array.length q.keys in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let keys = Array.make ncap 0 and vals = Array.make ncap vacant in
  Array.blit q.keys 0 keys 0 q.len;
  Array.blit q.vals 0 vals 0 q.len;
  q.keys <- keys;
  q.vals <- vals

(* The sifts move a hole, as [Int_heap]'s do: the same entries move as in
   a swap-based sift with strict [<], left child before right and the
   last entry refilling the root, so equal keys leave in that heap's
   order. *)
let push q key payload =
  if q.len = Array.length q.keys then grow q;
  let keys = q.keys and vals = q.vals in
  let i = ref q.len in
  q.len <- q.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let kp = Array.unsafe_get keys p in
    if key < kp then begin
      Array.unsafe_set keys !i kp;
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set vals !i (Obj.repr payload)

let[@inline] check_nonempty q =
  if q.len = 0 then invalid_arg "Heapq: empty"

let[@inline] top_key q =
  check_nonempty q;
  Array.unsafe_get q.keys 0

let[@inline] top q =
  check_nonempty q;
  Obj.obj (Array.unsafe_get q.vals 0)

let remove_min q =
  check_nonempty q;
  let n = q.len - 1 in
  q.len <- n;
  let keys = q.keys and vals = q.vals in
  let key = Array.unsafe_get keys n and v = Array.unsafe_get vals n in
  Array.unsafe_set vals n vacant;
  if n > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let kl = Array.unsafe_get keys l in
        let m = if kl < key then l else !i in
        let km = if kl < key then kl else key in
        let r = l + 1 in
        let m = if r < n && Array.unsafe_get keys r < km then r else m in
        if m = !i then moving := false
        else begin
          Array.unsafe_set keys !i (Array.unsafe_get keys m);
          Array.unsafe_set vals !i (Array.unsafe_get vals m);
          i := m
        end
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set vals !i v
  end

let min_key q = if is_empty q then None else Some (top_key q)

let pop q =
  if is_empty q then None
  else begin
    let key = top_key q and payload = top q in
    remove_min q;
    Some (key, payload)
  end

let clear q =
  Array.fill q.vals 0 q.len vacant;
  q.len <- 0
