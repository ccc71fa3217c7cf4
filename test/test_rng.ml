(* PRNG: determinism, range contracts, and coarse distributional checks.
   Statistical assertions use fixed seeds and >= 5-sigma tolerances, so the
   suite is deterministic in practice. *)

module Rng = Delphic_util.Rng

let test_deterministic () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_replays () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)

let test_split_decorrelates () =
  let a = Rng.create ~seed:4 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_int_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create ~seed:6 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniform () =
  let rng = Rng.create ~seed:7 in
  let bound = 10 in
  let counts = Array.make bound 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  (* Each bin is Bin(n, 1/10): sd ~ 95; allow 6 sigma. *)
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bin near n/10" true (abs (c - (n / bound)) < 600))
    counts

let test_int_in_range () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "singleton range" 9 (Rng.int_in_range rng ~lo:9 ~hi:9)

let test_float_range_and_mean () =
  let rng = Rng.create ~seed:9 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.float rng in
    if v < 0.0 || v >= 1.0 then Alcotest.fail "float outside [0,1)";
    sum := !sum +. v
  done;
  (* mean ~ 0.5, sd of mean ~ 0.289/sqrt(n) ~ 0.0009: allow 6 sigma. *)
  Alcotest.(check bool) "mean near 1/2" true (Float.abs ((!sum /. float_of_int n) -. 0.5) < 0.006)

let test_bernoulli () =
  let rng = Rng.create ~seed:10 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p_hat = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p near 0.3" true (Float.abs (p_hat -. 0.3) < 0.015);
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)

let test_gaussian_moments () =
  let rng = Rng.create ~seed:11 in
  let n = 100_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.gaussian rng in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.03)

let test_exponential_mean () =
  let rng = Rng.create ~seed:12 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng
  done;
  Alcotest.(check bool) "mean near 1" true
    (Float.abs ((!sum /. float_of_int n) -. 1.0) < 0.02)

let test_shuffle_is_permutation () =
  let rng = Rng.create ~seed:13 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "actually moved" true (a <> Array.init 100 Fun.id)

(* The generator's streams, pinned to the values of the boxed-state
   implementation: every draw function, five seeds (including -1 and
   max_int), and the children of [split] and [copy].  Each entry is the MD5
   of the 64 draws per seed rendered in order (floats in %h, so exactly);
   a rewrite of the state layout must leave every entry unchanged. *)
let golden_seeds = [ 0; 1; 42; -1; max_int ]

let golden_streams : (string * (Rng.t -> string list)) list =
  let draws f g = List.init 64 (fun _ -> f g) in
  let f64 v = Printf.sprintf "%h" v in
  let i64 g = Int64.to_string (Rng.int64 g) in
  [
    ("int64", draws i64);
    ("bits", draws (fun g -> string_of_int (Rng.bits g)));
    ("int 7", draws (fun g -> string_of_int (Rng.int g 7)));
    ("int 1000", draws (fun g -> string_of_int (Rng.int g 1000)));
    ("int 2^40", draws (fun g -> string_of_int (Rng.int g (1 lsl 40))));
    ( "int_in_range",
      draws (fun g ->
          Printf.sprintf "%d/%d"
            (Rng.int_in_range g ~lo:(-5) ~hi:5)
            (Rng.int_in_range g ~lo:min_int ~hi:max_int)) );
    ("float", draws (fun g -> f64 (Rng.float g)));
    ("bool", draws (fun g -> string_of_bool (Rng.bool g)));
    ("bernoulli 0.3", draws (fun g -> string_of_bool (Rng.bernoulli g 0.3)));
    ( "bernoulli 2^-k",
      fun g ->
        List.concat
          (List.init 61 (fun k ->
               draws (fun g -> string_of_bool (Rng.bernoulli g (Float.ldexp 1.0 (-k)))) g)) );
    ("gaussian", draws (fun g -> f64 (Rng.gaussian g)));
    ("exponential", draws (fun g -> f64 (Rng.exponential g)));
    ( "shuffle",
      fun g ->
        let a = Array.init 64 Fun.id in
        Rng.shuffle g a;
        Array.to_list (Array.map string_of_int a) );
    ( "split",
      fun g ->
        let child = Rng.split g in
        let grandchild = Rng.split child in
        List.concat_map (draws i64) [ child; grandchild; g ] );
    ( "copy",
      fun g ->
        ignore (Rng.int64 g);
        let c = Rng.copy g in
        ignore (Rng.int64 g);
        List.concat_map (draws i64) [ c; g ] );
  ]

let golden_digests =
  [
    ("int64", "ea0aa2c4fed664885008b464376a0201");
    ("bits", "13ffa84a81602b4974fad4065aba101e");
    ("int 7", "676a5f14b92b8d61236cf45e0e49ba76");
    ("int 1000", "228a43812594112b3266f97649d99fa5");
    ("int 2^40", "8689a1d8ba6f26b48fd38981a4fc405a");
    ("int_in_range", "f8eb274e1a2e760706c1d647120d9c3b");
    ("float", "71c3ce8c1f4dd9a5bf23323be3f9acd6");
    ("bool", "3021aed20ed4d419a8eaeb8bfa8b8ec2");
    ("bernoulli 0.3", "12fecf41733ec98af52052f1c29b8df5");
    ("bernoulli 2^-k", "3b8abc469b470910478893aff3dd4dff");
    ("gaussian", "defd8c1e2e6290635ec984c39c666eb2");
    ("exponential", "b7a918805f24a0aa3f942f496bebf222");
    ("shuffle", "6793a9cf78d48a02e5472a44f63dcefa");
    ("split", "c4b41fe7dc37f0d08efa5abed009923d");
    ("copy", "041c7d8c27050e1529b2b204d4eb31dc");
  ]

let test_golden_streams () =
  let g = Rng.create ~seed:0 in
  Alcotest.(check (list int64)) "seed 0 opens the int64 stream"
    [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L; 7684712102626143532L ]
    (List.init 4 (fun _ -> Rng.int64 g));
  let g = Rng.create ~seed:42 in
  Alcotest.(check (list int)) "seed 42 opens the int 1000 stream" [ 685; 775; 752; 48 ]
    (List.init 4 (fun _ -> Rng.int g 1000));
  List.iter
    (fun (name, draw) ->
      let all = List.concat_map (fun seed -> draw (Rng.create ~seed)) golden_seeds in
      Alcotest.(check string) name (List.assoc name golden_digests)
        (Digest.to_hex (Digest.string (String.concat " " all))))
    golden_streams

(* The hot draws allocate nothing: VATIC's estimate flips one coin per
   bucket entry.  Only meaningful in native code, where unboxed int64
   arithmetic stays in registers. *)
let test_draws_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let rng = Rng.create ~seed:14 in
    let acc = ref 0 in
    let words f =
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        acc := !acc + f ()
      done;
      Gc.minor_words () -. before
    in
    let check name f = Alcotest.(check (float 0.0)) (name ^ " allocates nothing") 0.0 (words f) in
    check "bits" (fun () -> Rng.bits rng land 1);
    check "int" (fun () -> Rng.int rng 1000);
    check "bool" (fun () -> Bool.to_int (Rng.bool rng));
    check "bernoulli" (fun () -> Bool.to_int (Rng.bernoulli rng 0.3));
    ignore (Sys.opaque_identity !acc)
  end

let suite =
  [
    Alcotest.test_case "deterministic from seed" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy replays stream" `Quick test_copy_replays;
    Alcotest.test_case "split decorrelates" `Quick test_split_decorrelates;
    Alcotest.test_case "int respects bound" `Quick test_int_bounds;
    Alcotest.test_case "int rejects non-positive bound" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "int is uniform" `Quick test_int_uniform;
    Alcotest.test_case "int_in_range inclusive" `Quick test_int_in_range;
    Alcotest.test_case "float range and mean" `Quick test_float_range_and_mean;
    Alcotest.test_case "bernoulli frequency and edges" `Quick test_bernoulli;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "golden streams" `Quick test_golden_streams;
    Alcotest.test_case "hot draws allocate nothing" `Quick test_draws_allocate_nothing;
  ]
