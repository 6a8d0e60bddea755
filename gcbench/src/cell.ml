(* One cell's outcome, as the pass checks it.  The simulated results
   are a deterministic function of the seed, so the benchmark digests
   them instead of timing them. *)

type t = {
  name : string;
  digest : string;  (** MD5 (hex) of the cell's simulated results *)
  virtual_s : float;  (** virtual seconds the cell advanced *)
  host_s : float;  (** host seconds the cell took *)
  error : string option;
      (** an exception other than a modelled out-of-memory, or a failed
          invariant check *)
}

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let invariants name check =
  match check with Ok () -> None | Error e -> Some (name ^ ": " ^ e)

(* Runs one cell, timing it and turning any escaping exception into a
   failed cell.  [f] leaves [host_s] at 0.

   Each cell starts from a collected heap: the full major collection
   frees what earlier cells left, so a pass's peak resident set is that
   of its largest cell.  Without it the peak is set by how far garbage
   from earlier cells happened to grow the heap, which moves by a third
   from one seed to the next on client-tail. *)
let run name f =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let cell =
    match f () with
    | cell -> cell
    | exception e ->
        {
          name;
          digest = "";
          virtual_s = 0.0;
          host_s = 0.0;
          error = Some (name ^ ": " ^ Printexc.to_string e);
        }
  in
  { cell with host_s = Unix.gettimeofday () -. t0 }
