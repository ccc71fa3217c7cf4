(* xoshiro256** 1.0 (Blackman & Vigna, public domain reference
   implementation), seeded via splitmix64.  Chosen over Stdlib.Random for
   reproducibility across OCaml versions and for cheap splitting.

   The four state words live unboxed in one 32-byte buffer (word i at byte
   8i) read and written through the unaligned 64-bit primitives, so a draw
   whose result is an immediate allocates nothing: the intermediate int64s
   stay in registers. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix state =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t (8 * i) (splitmix64_next state)
  done;
  t

let create ~seed = of_splitmix (ref (Int64.of_int seed))
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let s2 = logxor s2 s0 and s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 8 (logxor s1 s2);
  set t 16 (logxor s2 (shift_left s1 17));
  set t 24 (rotl s3 45);
  mul (rotl (mul s1 5L) 7) 9L

let int64 t = next t
let split t = of_splitmix (ref (next t))
let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Rejection sampling on the top bits to avoid modulo bias; a loop over a
   local ref rather than a recursive closure, so a call allocates nothing. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let max_int62 = (1 lsl 62) - 1 in
  let limit = max_int62 - (max_int62 mod bound) in
  let v = ref (bits t) in
  while !v >= limit do
    v := bits t
  done;
  !v mod bound

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  let span = hi - lo + 1 in
  if span <= 0 then
    (* range spans more than max_int, e.g. [min_int, max_int]: use raw bits *)
    Int64.to_int (next t)
  else lo + int t span

(* 53 random bits scaled into [0, 1). *)
let[@inline] float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11)) *. 0x1.0p-53

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = if p <= 0.0 then false else if p >= 1.0 then true else float t < p

(* [bernoulli t (Float.ldexp 1.0 e)] with the probability built here, where
   it stays unboxed: a caller in another module would box it. *)
let bernoulli_pow2 t e =
  if e >= 0 then true
  else
    let p = Float.ldexp 1.0 e in
    p > 0.0 && float t < p

let gaussian t =
  (* Polar method; draws pairs, discards the spare for statelessness. *)
  let rec loop () =
    let u = (2.0 *. float t) -. 1.0 in
    let v = (2.0 *. float t) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then loop () else u *. sqrt (-2.0 *. log s /. s)
  in
  loop ()

let exponential t =
  let rec positive () =
    let u = float t in
    if u > 0.0 then u else positive ()
  in
  -.log (positive ())

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
