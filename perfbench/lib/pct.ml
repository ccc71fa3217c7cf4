(* Nearest-rank percentiles, and the sample-size rule every run is sized
   by: a percentile is only trusted from a sample that leaves at least
   [min_beyond] values above its rank, so p99 needs 1000 samples and p90
   needs 100. *)

let min_beyond = 10

(* 1-based nearest rank, ceil(q·n).  The small slack keeps 0.99 · 1000
   (= 990.0000000000001 in floating point) at rank 990. *)
let rank ~n q =
  if n <= 0 then invalid_arg "Pct.rank: empty sample";
  let r = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let beyond ~n q = n - rank ~n q

let enough ~n q = n > 0 && beyond ~n q >= min_beyond

(* Smallest sample size that satisfies [enough] for [q]. *)
let needed q =
  let rec go n = if enough ~n q then n else go (n + 1) in
  go 1

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let of_sorted a q = if Array.length a = 0 then Float.nan else a.(rank ~n:(Array.length a) q - 1)

let percentile xs q = of_sorted (sorted xs) q

let median xs = percentile xs 0.5
