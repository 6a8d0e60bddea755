(* Host-time accounting around calls into the library's public
   functions.  The timers live here, in the benchmark, not inside
   lib/: a span is the host time of one call a workload makes.

   An accumulator is owned by one cell (one domain); a pass merges the
   cells' accumulators in cell order once the pool has joined. *)

type t = {
  on : bool;
  values : (string, float) Hashtbl.t;
  mutable spans_s : float;
      (* host seconds of the spans opened with [time] (not their [also]
         copies), the numerator of the tracing coverage *)
  mutable spans : int;  (* how many spans [time] opened *)
}

let create ~on = { on; values = Hashtbl.create 64; spans_s = 0.0; spans = 0 }
let on t = t.on
let now = Unix.gettimeofday

(* Words the OCaml runtime allocated on the calling domain. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let add t key v =
  if t.on then
    Hashtbl.replace t.values key
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.values key))

let get t key = Option.value ~default:0.0 (Hashtbl.find_opt t.values key)

(* [time t key ~also ~mwords f] runs [f ()], adding its host seconds to
   [key] and to every key of [also], and the millions of words it
   allocated to [mwords] when given.  With tracing off it is [f ()]. *)
let time t key ?(also = []) ?mwords f =
  if not t.on then f ()
  else begin
    let w0 = match mwords with None -> 0.0 | Some _ -> words () in
    let t0 = now () in
    let record () =
      let dt = now () -. t0 in
      t.spans_s <- t.spans_s +. dt;
      t.spans <- t.spans + 1;
      add t key dt;
      List.iter (fun k -> add t k dt) also;
      Option.iter (fun k -> add t k ((words () -. w0) /. 1e6)) mwords
    in
    match f () with
    | r ->
        record ();
        r
    | exception e ->
        record ();
        raise e
  end

let merge_into dst src =
  if dst.on then begin
    Hashtbl.iter (fun k v -> add dst k v) src.values;
    dst.spans_s <- dst.spans_s +. src.spans_s;
    dst.spans <- dst.spans + src.spans
  end

let spans_s t = t.spans_s

(* Host seconds the pass's spans cost in bookkeeping alone: the span
   count times the median cost of an empty span, with two extra keys
   and a word count as the heaviest spans have them. *)
let bookkeeping_s t =
  let scratch = create ~on:true in
  let n = 2000 in
  let sample () =
    let t0 = now () in
    for _ = 1 to n do
      time scratch "a" ~also:[ "b"; "c" ] ~mwords:"d" ignore
    done;
    (now () -. t0) /. float_of_int n
  in
  let samples = List.sort compare (List.init 9 (fun _ -> sample ())) in
  float_of_int t.spans *. List.nth samples 4

let to_list t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.values []
