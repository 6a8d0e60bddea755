type t = {
  mutable state : int64;
  (* Memoised rejection-inversion constants for the last zipf target:
     YCSB-style workloads draw millions of samples from one (n, theta)
     pair, and recomputing the integration bounds costs two [**] calls
     per draw.  [zipf_n = 0] marks the cache empty. *)
  mutable zipf_n : int;
  mutable zipf_theta : float;
  mutable zipf_theta_eff : float;
  mutable zipf_omt : float; (* 1 - theta_eff *)
  mutable zipf_inv_omt : float; (* 1 / (1 - theta_eff) *)
  mutable zipf_hx0 : float;
  mutable zipf_hn : float;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  {
    state;
    zipf_n = 0;
    zipf_theta = 0.0;
    zipf_theta_eff = 0.0;
    zipf_omt = 0.0;
    zipf_inv_omt = 0.0;
    zipf_hx0 = 0.0;
    zipf_hn = 0.0;
  }

let create seed = of_state (Int64.of_int seed)

(* SplitMix64 output function: add the golden gamma, then xor-shift mix.
   Inlined so hot callers keep the int64 intermediates in registers
   instead of boxing them between calls. *)
let[@inline] bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (bits64 t)

let copy t = of_state t.state

(* Keep 62 bits so the value is non-negative in OCaml's 63-bit int. *)
let[@inline] nonneg t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t n =
  assert (n > 0);
  (* Modulo bias is negligible for simulation ranges (n << 2^62). *)
  nonneg t mod n

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@inline] unit_float t =
  (* 53 random bits into [0,1). *)
  let x = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int x *. 0x1.0p-53

let[@inline] float t x = unit_float t *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let[@inline] exponential t mean =
  let u = 1.0 -. unit_float t in
  -. mean *. log u

let pareto t ~shape ~scale =
  let u = 1.0 -. unit_float t in
  scale /. (u ** (1.0 /. shape))

let[@inline] gaussian t ~mean ~stddev =
  let u1 = 1.0 -. unit_float t and u2 = unit_float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let[@inline] lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

(* Zipf sampling by rejection inversion (Hörmann & Derflinger 1996), as
   used in YCSB's ScrambledZipfianGenerator.  Valid for theta <> 1; we
   nudge theta slightly when it is exactly 1. *)
let zipf t ~n ~theta =
  assert (n > 0);
  if n = 1 then 0
  else begin
    if t.zipf_n <> n || t.zipf_theta <> theta then begin
      let eff =
        if Float.abs (theta -. 1.0) < 1e-9 then 1.0 +. 1e-6 else theta
      in
      let omt = 1.0 -. eff in
      let h x = ((x ** omt) -. 1.0) /. omt in
      t.zipf_n <- n;
      t.zipf_theta <- theta;
      t.zipf_theta_eff <- eff;
      t.zipf_omt <- omt;
      t.zipf_inv_omt <- 1.0 /. omt;
      t.zipf_hx0 <- h 0.5 -. 1.0;
      t.zipf_hn <- h (float_of_int n +. 0.5)
    end;
    let theta = t.zipf_theta_eff and omt = t.zipf_omt in
    let h x = ((x ** omt) -. 1.0) /. omt in
    let h_inv x = (1.0 +. (x *. omt)) ** t.zipf_inv_omt in
    let hx0 = t.zipf_hx0 in
    let hn = t.zipf_hn in
    let rec draw () =
      let u = hx0 +. (unit_float t *. (hn -. hx0)) in
      let x = h_inv u in
      let k = Float.round x in
      let k = if k < 1.0 then 1.0 else if k > float_of_int n then float_of_int n else k in
      (* Accept if u falls under the discrete histogram bar for k. *)
      if u >= h (k -. 0.5) -. (k ** (-. theta)) then int_of_float k - 1
      else draw ()
    in
    draw ()
  end
