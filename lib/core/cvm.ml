module Rng = Delphic_util.Rng

type t = {
  thresh : int;
  rng : Rng.t;
  buffer : (int, unit) Hashtbl.t;
  mutable level : int; (* p = 2^-level *)
}

let create ?thresh ~epsilon ~delta ~stream_bound ~seed () =
  if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Cvm.create: need 0 < epsilon < 1";
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Cvm.create: need 0 < delta < 1";
  if stream_bound <= 0 then invalid_arg "Cvm.create: need stream_bound > 0";
  let thresh =
    match thresh with
    | Some value ->
      if value < 2 then invalid_arg "Cvm.create: thresh must be >= 2";
      value
    | None ->
      int_of_float
        (Float.ceil
           (12.0 /. (epsilon *. epsilon)
           *. (log (8.0 *. float_of_int stream_bound /. delta) /. log 2.0)))
  in
  { thresh; rng = Rng.create ~seed; buffer = Hashtbl.create (2 * thresh); level = 0 }

let thresh t = t.thresh
let level t = t.level
let buffer_size t = Hashtbl.length t.buffer

let add t x =
  (* Last-occurrence rule: only this arrival's coin decides survival. *)
  Hashtbl.remove t.buffer x;
  if Rng.bernoulli_pow2 t.rng (-t.level) then
    Hashtbl.replace t.buffer x ();
  if Hashtbl.length t.buffer >= t.thresh then begin
    (* Buffer full: thin it with fair coins and halve p. *)
    let doomed =
      Hashtbl.fold (fun y () acc -> if Rng.bool t.rng then y :: acc else acc) t.buffer []
    in
    List.iter (Hashtbl.remove t.buffer) doomed;
    t.level <- t.level + 1
  end

let estimate t = Float.ldexp (float_of_int (buffer_size t)) t.level

(* Sharded-stream merge: downsample both buffers to the common minimum
   probability (the larger level), union with dedup, and re-apply the
   threshold rule so the merged buffer obeys the same invariant.  Merging
   with an empty sketch is the exact identity; an element surviving in both
   buffers flips a single downsampling coin (shard a's), never two — the
   same rule, and the same residual cross-shard caveat, as Vatic.merge. *)
let merge a b ~seed =
  if a.thresh <> b.thresh then invalid_arg "Cvm.merge: sketches have different thresh";
  let t =
    {
      thresh = a.thresh;
      rng = Rng.create ~seed;
      buffer = Hashtbl.create (2 * a.thresh);
      level = 0;
    }
  in
  if buffer_size a = 0 then begin
    Hashtbl.iter (fun x () -> Hashtbl.replace t.buffer x ()) b.buffer;
    t.level <- b.level
  end
  else if buffer_size b = 0 then begin
    Hashtbl.iter (fun x () -> Hashtbl.replace t.buffer x ()) a.buffer;
    t.level <- a.level
  end
  else begin
    let l0 = Stdlib.max a.level b.level in
    let absorb ~dup src =
      Hashtbl.iter
        (fun x () ->
          if (not (dup x)) && Rng.bernoulli_pow2 t.rng (src.level - l0)
          then Hashtbl.replace t.buffer x ())
        src.buffer
    in
    absorb ~dup:(fun _ -> false) a;
    absorb ~dup:(Hashtbl.mem a.buffer) b;
    t.level <- l0;
    while Hashtbl.length t.buffer >= t.thresh do
      let doomed =
        Hashtbl.fold (fun y () acc -> if Rng.bool t.rng then y :: acc else acc) t.buffer []
      in
      List.iter (Hashtbl.remove t.buffer) doomed;
      t.level <- t.level + 1
    done
  end;
  t
