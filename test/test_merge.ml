(* Merge algebra for the mergeable sketches (the cluster's gather/fold
   step).  The deterministic sketches (bottom-k, HyperLogLog) obey the
   full semilattice laws exactly; the coin-flipping ones (VATIC, CVM)
   are checked for the exact laws they do guarantee — merge-with-empty
   identity, parameter-mismatch rejection — and for the law that matters
   to the cluster: a k-way sharded stream folds to an estimate inside
   the same (ε, δ) envelope as the single-stream run. *)

module Rng = Delphic_util.Rng
module B = Delphic_util.Bigint
module Workload = Delphic_stream.Workload
module Exact = Delphic_sets.Exact
module Bottom_k = Delphic_core.Bottom_k
module Hll = Delphic_core.Hyperloglog
module Cvm = Delphic_core.Cvm
module V_rect = Delphic_core.Vatic.Make (Delphic_sets.Rectangle)

let gen_values =
  QCheck.Gen.(list_size (int_range 0 400) (int_range 0 5_000))

let arb_two_streams =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "(%d values, %d values)" (List.length a) (List.length b))
    QCheck.Gen.(pair gen_values gen_values)

(* Bottom-k shares its hash function across instances, so merge is a
   true semilattice join: commutative, associative, idempotent. *)
let prop_bottom_k_lattice =
  QCheck.Test.make ~name:"bottom-k merge: commutative + idempotent" ~count:100
    arb_two_streams (fun (xs, ys) ->
      let sk vs =
        let t = Bottom_k.create ~k:64 ~epsilon:0.25 () in
        List.iter (Bottom_k.add t) vs;
        t
      in
      let a = sk xs and b = sk ys in
      let ab = Bottom_k.estimate (Bottom_k.merge a b)
      and ba = Bottom_k.estimate (Bottom_k.merge b a)
      and aa = Bottom_k.estimate (Bottom_k.merge a a) in
      ab = ba && aa = Bottom_k.estimate a)

let prop_hll_lattice =
  QCheck.Test.make ~name:"hyperloglog merge: commutative + idempotent"
    ~count:100 arb_two_streams (fun (xs, ys) ->
      let sk vs =
        let t = Hll.create ~bits:8 () in
        List.iter (Hll.add t) vs;
        t
      in
      let a = sk xs and b = sk ys in
      let ab = Hll.estimate (Hll.merge a b)
      and ba = Hll.estimate (Hll.merge b a)
      and aa = Hll.estimate (Hll.merge a a) in
      ab = ba && aa = Hll.estimate a)

(* A merged deterministic sketch equals the sketch of the concatenated
   stream — the defining property of a lossless merge. *)
let prop_bottom_k_lossless =
  QCheck.Test.make ~name:"bottom-k merge = sketch of concatenation" ~count:100
    arb_two_streams (fun (xs, ys) ->
      let sk vs =
        let t = Bottom_k.create ~k:64 ~epsilon:0.25 () in
        List.iter (Bottom_k.add t) vs;
        t
      in
      Bottom_k.estimate (Bottom_k.merge (sk xs) (sk ys))
      = Bottom_k.estimate (sk (xs @ ys)))

let rect_pool ?(seed = 11) ?(count = 150) ?(max_side = 400) () =
  let gen = Rng.create ~seed in
  Workload.Rectangles.uniform gen ~universe:100_000 ~dim:2 ~count ~max_side

let test_vatic_empty_identity () =
  let pool = rect_pool () in
  let mk seed =
    V_rect.create ~epsilon:0.2 ~delta:0.1 ~log2_universe:34.0 ~seed ()
  in
  let full = mk 42 in
  List.iter (V_rect.process full) pool;
  let empty = mk 977 in
  (* [estimate] draws fresh subsampling coins, so exact identity is
     checked on the deterministic Horvitz–Thompson estimator: the
     empty-side merge copies the bucket (elements and levels) verbatim. *)
  let ht = V_rect.estimate_horvitz_thompson in
  let reference = ht full in
  Alcotest.(check (float 0.0))
    "merge full empty = full" reference
    (ht (V_rect.merge full empty ~seed:5));
  Alcotest.(check (float 0.0))
    "merge empty full = full" reference
    (ht (V_rect.merge empty full ~seed:6));
  Alcotest.(check (float 0.0))
    "merge empty empty = 0" 0.0
    (V_rect.estimate (V_rect.merge empty (mk 3) ~seed:7));
  (* inputs unchanged by the merge *)
  Alcotest.(check (float 0.0)) "input untouched" reference (ht full)

let test_vatic_param_mismatch () =
  let mk ~epsilon ~delta ~log2_universe seed =
    V_rect.create ~epsilon ~delta ~log2_universe ~seed ()
  in
  let base = mk ~epsilon:0.2 ~delta:0.1 ~log2_universe:34.0 1 in
  let check name other =
    Alcotest.check_raises name
      (Invalid_argument "Vatic.merge: parameter mismatch") (fun () ->
        ignore (V_rect.merge base other ~seed:9))
  in
  check "epsilon differs" (mk ~epsilon:0.3 ~delta:0.1 ~log2_universe:34.0 2);
  check "delta differs" (mk ~epsilon:0.2 ~delta:0.2 ~log2_universe:34.0 3);
  check "universe differs" (mk ~epsilon:0.2 ~delta:0.1 ~log2_universe:20.0 4)

let test_cvm_empty_identity_and_mismatch () =
  let gen = Rng.create ~seed:88 in
  let mk seed =
    Cvm.create ~epsilon:0.2 ~delta:0.1 ~stream_bound:10_000 ~seed ()
  in
  let full = mk 1 in
  for _ = 1 to 2_000 do
    Cvm.add full (Rng.int gen 3_000)
  done;
  let reference = Cvm.estimate full in
  Alcotest.(check (float 0.0))
    "merge full empty = full" reference
    (Cvm.estimate (Cvm.merge full (mk 2) ~seed:5));
  Alcotest.(check (float 0.0))
    "merge empty full = full" reference
    (Cvm.estimate (Cvm.merge (mk 3) full ~seed:6));
  let other = Cvm.create ~thresh:97 ~epsilon:0.2 ~delta:0.1 ~stream_bound:10_000 ~seed:4 () in
  Alcotest.check_raises "thresh mismatch"
    (Invalid_argument "Cvm.merge: sketches have different thresh") (fun () ->
      ignore (Cvm.merge full other ~seed:7))

(* The cluster law: shard the stream k ways by hash of the set (so
   duplicate sets collapse onto one shard), run one sketch per shard,
   fold with merge — the result must sit in the same relative-error
   envelope as a single-stream run.  Checked on a disjoint-heavy and on
   an overlapping workload, for both a geometric (rect) and a boolean
   (DNF) family. *)
let check_sharded (type s e) ~name ~k ~trials ~epsilon ~log2_universe ~truth
    ~pool
    (module F : Delphic_family.Family.FAMILY with type t = s and type elt = e) =
  let module V = Delphic_core.Vatic.Make (F) in
  let failures = ref 0 in
  for i = 0 to trials - 1 do
    let base = 9_000 + (131 * i) in
    let shards =
      Array.init k (fun j ->
          V.create ~epsilon ~delta:0.2 ~log2_universe ~seed:(base + j) ())
    in
    List.iter
      (fun s -> V.process shards.(Hashtbl.hash s mod k) s)
      pool;
    let folded =
      Array.fold_left
        (fun acc sk ->
          match acc with
          | None -> Some sk
          | Some prev -> Some (V.merge prev sk ~seed:(base + 71)))
        None shards
    in
    let est = match folded with Some sk -> V.estimate sk | None -> 0.0 in
    if Float.abs (est -. truth) > epsilon *. truth then incr failures
  done;
  (* delta = 0.2 per shard-fold; allow a 25% failure rate as elsewhere. *)
  if 4 * !failures > trials then
    Alcotest.failf "%s: %d/%d sharded trials outside epsilon" name !failures
      trials

let test_sharded_rect_disjoint () =
  (* small boxes in a huge universe: shards barely overlap *)
  let pool = Workload.Orders.bursty ~copies:3 (rect_pool ~seed:21 ~count:120 ~max_side:300 ()) in
  let truth = B.to_float (Exact.rectangle_union pool) in
  check_sharded ~name:"rect disjoint-heavy" ~k:4 ~trials:10 ~epsilon:0.25
    ~log2_universe:34.0 ~truth ~pool
    (module Delphic_sets.Rectangle)

let test_sharded_rect_overlapping () =
  (* bigger boxes in a denser universe: distinct sets overlap across
     shards (~25% coverage density), where merge's independent inclusion
     coins bias upward — the bias must stay inside the envelope *)
  let gen = Rng.create ~seed:23 in
  let pool =
    Workload.Rectangles.uniform gen ~universe:20_000 ~dim:2 ~count:100
      ~max_side:2_000
  in
  let truth = B.to_float (Exact.rectangle_union pool) in
  check_sharded ~name:"rect overlapping" ~k:3 ~trials:10 ~epsilon:0.25
    ~log2_universe:29.0 ~truth ~pool
    (module Delphic_sets.Rectangle)

let test_sharded_dnf () =
  (* width-7 terms on 20 vars: union covers ~25% of the cube with real
     term-to-term overlap, duplicated terms collapse onto one shard *)
  let gen = Rng.create ~seed:29 in
  let pool =
    Workload.Orders.bursty ~copies:2
      (Workload.Dnf_terms.random gen ~nvars:20 ~count:40 ~width:7)
  in
  let truth = B.to_float (Exact.dnf_count ~nvars:20 pool) in
  check_sharded ~name:"dnf overlapping" ~k:4 ~trials:10 ~epsilon:0.25
    ~log2_universe:20.0 ~truth ~pool
    (module Delphic_sets.Dnf)

(* --- the k-way fold --------------------------------------------------- *)

module Families = Delphic_server.Families
module P = Delphic_server.Protocol
module Io = Delphic_core.Snapshot_io

let payload_of box =
  let lo = Delphic_sets.Rectangle.lo box and hi = Delphic_sets.Rectangle.hi box in
  Printf.sprintf "%d %d %d %d" lo.(0) hi.(0) lo.(1) hi.(1)

let session ?(log2_universe = 34.0) ~seed boxes =
  match Families.create ~family:P.Rect ~epsilon:0.2 ~delta:0.1 ~log2_universe ~seed with
  | Error msg -> Alcotest.fail msg
  | Ok f ->
    List.iteri (fun i b -> Families.add ~ts:(float_of_int i) f ~lineno:(i + 1) (payload_of b)) boxes;
    f

let ok = function Ok v -> v | Error msg -> Alcotest.fail msg

let sorted_entries f =
  let io = Families.to_io f in
  (List.sort compare (Io.exact_entries io), List.sort compare (Io.sketch_entries io))

(* Three exact-regime shards with overlapping content fold — live, as
   decoded tokens, or mixed — to exactly the union: the same count, the
   same elements, each at its newest timestamp across the shards. *)
let test_fold_exact_k3 () =
  let pool = rect_pool ~seed:41 ~count:60 ~max_side:12 () in
  let shard j = List.filteri (fun i _ -> i mod 3 = j || i mod 5 = j) pool in
  let fs = List.init 3 (fun j -> session ~seed:(70 + j) (shard j)) in
  List.iter (fun f -> Alcotest.(check bool) "shard exact" true (Families.is_exact f)) fs;
  let truth = B.to_float (Exact.rectangle_union (List.concat_map shard [ 0; 1; 2 ])) in
  (* the union table built by hand: newest timestamp per element *)
  let expected =
    let tbl = Hashtbl.create 1024 in
    List.iter
      (fun f ->
        List.iter
          (fun (ts, e) ->
            match Hashtbl.find_opt tbl e with
            | Some old when old >= ts -> ()
            | _ -> Hashtbl.replace tbl e ts)
          (Io.exact_entries (Families.to_io f)))
      fs;
    List.sort compare (Hashtbl.fold (fun e ts acc -> (ts, e) :: acc) tbl [])
  in
  let tokens = List.map (fun f -> Families.Decoded (ok (Io.decode (ok (Families.encode f))))) fs in
  let check name sources =
    let folded = ok (Families.fold sources ~seed:5) in
    Alcotest.(check bool) (name ^ ": still exact") true (Families.is_exact folded);
    Alcotest.(check (float 0.0)) (name ^ ": exact union") truth (Families.estimate folded);
    Alcotest.(check bool) (name ^ ": union entries, newest timestamps") true
      (fst (sorted_entries folded) = expected)
  in
  check "live" (List.map (fun f -> Families.Live f) fs);
  check "tokens" tokens;
  check "mixed" (Families.Live (List.hd fs) :: List.tl tokens)

(* An element held by every source gets one coin, at the first holder's
   level, and keeps its newest timestamp.  k sources share N elements at
   level 0; one more element at level L sets the fold level L0 = L, so a
   shared element survives with probability 2^-L — one coin — where k
   independent coins would keep about k times as many. *)
let test_fold_one_coin_k () =
  let module V = V_rect in
  let n = 4096 and level = 3 in
  let shared = List.init n (fun i -> [| i; i |]) in
  let header =
    (V.source (V.create ~epsilon:0.2 ~delta:0.1 ~log2_universe:34.0 ~seed:1 ())).V.header
  in
  let src k =
    let entries =
      ([| -1; k |], level, 0.0) :: List.map (fun x -> (x, 0, float_of_int k)) shared
    in
    {
      V.header;
      min_level = level;
      size = List.length entries;
      iter = (fun f -> List.iter (fun (x, l, ts) -> f x l ts) entries);
    }
  in
  List.iter
    (fun k ->
      let folded = V.fold (List.init k src) ~seed:(100 + k) in
      let survivors = ref [] in
      (V.source folded).V.iter (fun x l ts ->
          if x.(0) >= 0 then survivors := (x, l, ts) :: !survivors);
      let survivors = !survivors in
      let kept = List.length survivors in
      let expected = n lsr level in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: %d shared survivors, one coin each expects %d" k kept expected)
        true
        (abs (kept - expected) < 100);
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: survivors at the fold level, newest timestamp" k)
        true
        (List.for_all (fun (_, l, ts) -> l = level && ts = float_of_int (k - 1)) survivors))
    [ 2; 3; 5 ]

(* Over seeded sketch-regime runs the one-pass k-way fold's mean estimate
   matches the pairwise fold's: the same inclusion probability 2^(l-L0)
   per element.  (The k-way fold can only be lower: an element held by
   shards 1 and 3 but dropped by the first pairwise merge gets a second
   coin there, and none in one pass.) *)
let test_fold_k_vs_pairwise () =
  let gen = Rng.create ~seed:43 in
  let pool = Workload.Rectangles.uniform gen ~universe:20_000 ~dim:2 ~count:90 ~max_side:2_000 in
  let shard j = List.filter (fun b -> Hashtbl.hash (payload_of b) mod 3 = j) pool in
  let trials = 30 in
  let kway = ref 0.0 and pair = ref 0.0 in
  for t = 0 to trials - 1 do
    let fs = List.init 3 (fun j -> session ~log2_universe:29.0 ~seed:(1000 + (10 * t) + j) (shard j)) in
    List.iter (fun f -> Alcotest.(check bool) "shard sketching" false (Families.is_exact f)) fs;
    let folded = ok (Families.fold (List.map (fun f -> Families.Live f) fs) ~seed:(7 * t)) in
    let pairwise =
      List.fold_left
        (fun acc f -> ok (Families.merge acc f ~seed:(7 * t)))
        (List.hd fs) (List.tl fs)
    in
    kway := !kway +. Families.estimate folded;
    pair := !pair +. Families.estimate pairwise
  done;
  let kway = !kway /. float_of_int trials and pair = !pair /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "k-way mean %.0f within 10%% of pairwise mean %.0f" kway pair)
    true
    (Float.abs (kway -. pair) <= 0.1 *. pair)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bottom_k_lattice;
    QCheck_alcotest.to_alcotest prop_hll_lattice;
    QCheck_alcotest.to_alcotest prop_bottom_k_lossless;
    Alcotest.test_case "VATIC merge-with-empty identity" `Quick
      test_vatic_empty_identity;
    Alcotest.test_case "VATIC merge parameter mismatch" `Quick
      test_vatic_param_mismatch;
    Alcotest.test_case "CVM merge identity + mismatch" `Quick
      test_cvm_empty_identity_and_mismatch;
    Alcotest.test_case "sharded VATIC: disjoint-heavy rects" `Quick
      test_sharded_rect_disjoint;
    Alcotest.test_case "sharded VATIC: overlapping rects" `Quick
      test_sharded_rect_overlapping;
    Alcotest.test_case "sharded VATIC: overlapping DNF" `Quick
      test_sharded_dnf;
    Alcotest.test_case "k=3 exact fold = exact union" `Quick test_fold_exact_k3;
    Alcotest.test_case "k-way fold: one coin per element" `Quick test_fold_one_coin_k;
    Alcotest.test_case "k-way fold mean = pairwise mean" `Quick test_fold_k_vs_pairwise;
  ]
