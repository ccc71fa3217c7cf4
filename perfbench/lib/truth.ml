(* Exact ground truth for every answer the benchmark scores.

   A session's stream is its box pool walked cyclically from index 0: the
   k-th set sent to the session is [pool.(k mod P)].  Any contiguous run of
   the stream is therefore a cyclic run of the pool, and its union is
   computed once with [Exact.rectangle_union] and memoised by (start, length)
   — a 10 s run sends a million sets but only touches a few hundred distinct
   runs. *)

module Rect = Delphic_sets.Rectangle
module Exact = Delphic_sets.Exact

type stream = { pool : Rect.t array; memo : (int * int, float) Hashtbl.t }

let stream pool =
  if Array.length pool = 0 then invalid_arg "Truth.stream: empty pool";
  { pool; memo = Hashtbl.create 64 }

let union boxes = Delphic_util.Bigint.to_float (Exact.rectangle_union boxes)

(* The distinct boxes of stream indices [lo, hi): at most one pool lap. *)
let boxes s ~lo ~hi =
  let p = Array.length s.pool in
  let len = min (hi - lo) p in
  if len <= 0 then []
  else
    let start = if len = p then 0 else lo mod p in
    List.init len (fun i -> s.pool.((start + i) mod p))

(* |∪ of the sets with stream index in [lo, hi)|. *)
let range s ~lo ~hi =
  let p = Array.length s.pool in
  let len = min (hi - lo) p in
  if len <= 0 then 0.0
  else
    let key = ((if len = p then 0 else lo mod p), len) in
    match Hashtbl.find_opt s.memo key with
    | Some v -> v
    | None ->
      let v = union (boxes s ~lo ~hi) in
      Hashtbl.add s.memo key v;
      v

let prefix s n = range s ~lo:0 ~hi:n

(* |(A ∩ B) \ C| by inclusion–exclusion over unions only:
   |A∪C| + |B∪C| − |A∪B∪C| = |(A∩B) ∪ C|, and removing |C| leaves the
   answer.  Every term is an exact Klee measure. *)
let and_minus ~a ~b ~c = union (a @ c) +. union (b @ c) -. union c -. union (a @ b @ c)

(* The range an answer may honestly take: [lo] is the truth over sets
   acknowledged before the request left, [hi] over sets sent before its
   reply arrived. *)
type bracket = { lo : float; hi : float }

let bracket a b = { lo = Float.min a b; hi = Float.max a b }

type verdict = {
  inside : bool;  (** within (1 ± tolerance) × the bracket *)
  rel_err : float;  (** distance to the nearest bracket end, relative to it *)
  factor : float;  (** max(v/hi, lo/v), at least 1 *)
}

let score ~tolerance br v =
  let inside = v >= br.lo *. (1.0 -. tolerance) && v <= br.hi *. (1.0 +. tolerance) in
  let rel_err, factor =
    if v > br.hi then
      let d = Float.max br.hi 1.0 in
      ((v -. br.hi) /. d, v /. d)
    else if v < br.lo then ((br.lo -. v) /. br.lo, br.lo /. Float.max v 1.0)
    else (0.0, 1.0)
  in
  { inside; rel_err; factor }
