type t = {
  mutable keys : int array;
  mutable a : int array;
  mutable b : int array;
  mutable len : int;
}

let create () = { keys = [||]; a = [||]; b = [||]; len = 0 }

let[@inline] length h = h.len

let[@inline] is_empty h = h.len = 0

let[@inline never] grow h =
  let cap = Array.length h.keys in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let extend col =
    let c = Array.make ncap 0 in
    Array.blit col 0 c 0 h.len;
    c
  in
  h.keys <- extend h.keys;
  h.a <- extend h.a;
  h.b <- extend h.b

(* Both sifts move a hole instead of swapping: the entries that move are
   exactly those a swap-based sift would swap, so the layout, and with it
   the order in which equal keys leave, is the swap-based heap's. *)
let push h key x y =
  if h.len = Array.length h.keys then grow h;
  let keys = h.keys and ca = h.a and cb = h.b in
  let i = ref h.len in
  h.len <- h.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let kp = Array.unsafe_get keys p in
    if key < kp then begin
      Array.unsafe_set keys !i kp;
      Array.unsafe_set ca !i (Array.unsafe_get ca p);
      Array.unsafe_set cb !i (Array.unsafe_get cb p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set ca !i x;
  Array.unsafe_set cb !i y

let[@inline] check_nonempty h =
  if h.len = 0 then invalid_arg "Int_heap: empty"

let[@inline] top_key h =
  check_nonempty h;
  Array.unsafe_get h.keys 0

let[@inline] top_a h =
  check_nonempty h;
  Array.unsafe_get h.a 0

let[@inline] top_b h =
  check_nonempty h;
  Array.unsafe_get h.b 0

(* The last entry fills the root's hole and sinks: at each level the
   smaller child is taken, the left one on a tie, and only if it is
   strictly below the sinking key. *)
let remove_min h =
  check_nonempty h;
  let n = h.len - 1 in
  h.len <- n;
  if n > 0 then begin
    let keys = h.keys and ca = h.a and cb = h.b in
    let key = Array.unsafe_get keys n in
    let x = Array.unsafe_get ca n and y = Array.unsafe_get cb n in
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
          Array.unsafe_set ca !i (Array.unsafe_get ca m);
          Array.unsafe_set cb !i (Array.unsafe_get cb m);
          i := m
        end
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set ca !i x;
    Array.unsafe_set cb !i y
  end
