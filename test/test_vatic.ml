(* VATIC end-to-end: accuracy on several families, the space invariant, the
   last-occurrence semantics, parameter validation, instrumentation, and
   union sampling. *)

module Rng = Delphic_util.Rng
module B = Delphic_util.Bigint
module Range1d = Delphic_sets.Range1d
module Rectangle = Delphic_sets.Rectangle
module Exact = Delphic_sets.Exact
module Params = Delphic_core.Params
module Workload = Delphic_stream.Workload

module V_range = Delphic_core.Vatic.Make (Range1d)
module V_rect = Delphic_core.Vatic.Make (Rectangle)
module V_dnf = Delphic_core.Vatic.Make (Delphic_sets.Dnf)

let log2f x = log x /. log 2.0

let test_params_validation () =
  let ok () = Params.create ~epsilon:0.2 ~delta:0.1 ~log2_universe:30.0 () in
  ignore (ok ());
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Params.create ~epsilon:0.0 ~delta:0.1 ~log2_universe:30.0 ());
  expect_invalid (fun () -> Params.create ~epsilon:1.0 ~delta:0.1 ~log2_universe:30.0 ());
  expect_invalid (fun () -> Params.create ~epsilon:0.2 ~delta:0.0 ~log2_universe:30.0 ());
  expect_invalid (fun () -> Params.create ~epsilon:0.2 ~delta:0.1 ~log2_universe:(-1.0) ());
  (* Universe too small: the admission floor exceeds 1/2. *)
  expect_invalid (fun () -> Params.create ~epsilon:0.1 ~delta:0.1 ~log2_universe:8.0 ())

let test_params_paper_mode_larger () =
  let practical = Params.create ~epsilon:0.2 ~delta:0.1 ~log2_universe:40.0 () in
  let paper =
    Params.create ~mode:Params.Paper ~epsilon:0.2 ~delta:0.1 ~log2_universe:40.0 ()
  in
  Alcotest.(check bool) "paper constants dominate" true
    (paper.Params.bucket_capacity > 10 * practical.Params.bucket_capacity)

let test_max_samples_formula () =
  let p = Params.create ~epsilon:0.2 ~delta:0.1 ~log2_universe:40.0 () in
  Alcotest.(check bool) "monotone in N" true
    (Params.max_samples p ~n_distinct:10 < Params.max_samples p ~n_distinct:20);
  Alcotest.(check int) "zero budget for zero" 0 (Params.max_samples p ~n_distinct:0)

let test_empty_stream () =
  let t = V_range.create ~epsilon:0.2 ~delta:0.2 ~log2_universe:20.0 ~seed:1 () in
  Alcotest.(check (float 0.0)) "estimate 0" 0.0 (V_range.estimate t);
  Alcotest.(check int) "no items" 0 (V_range.items_processed t);
  Alcotest.(check bool) "no union sample" true (V_range.sample_union t = None)

let test_single_set_exact_regime () =
  (* One large range, far below the bucket capacity threshold after one
     halving, still estimates well. *)
  let t = V_range.create ~epsilon:0.2 ~delta:0.2 ~log2_universe:20.0 ~seed:2 () in
  V_range.process t (Range1d.create ~lo:0 ~hi:99_999);
  let est = V_range.estimate t in
  Alcotest.(check bool)
    (Printf.sprintf "single set estimate %.0f near 100000" est)
    true
    (Float.abs (est -. 100_000.0) < 15_000.0)

let test_duplicate_heavy_stream () =
  (* The same set repeated many times: the estimate must track |S|, not M. *)
  let t = V_range.create ~epsilon:0.2 ~delta:0.2 ~log2_universe:20.0 ~seed:3 () in
  let s = Range1d.create ~lo:500 ~hi:50_499 in
  for _ = 1 to 500 do
    V_range.process t s
  done;
  let est = V_range.estimate t in
  Alcotest.(check bool)
    (Printf.sprintf "duplicates: %.0f near 50000" est)
    true
    (Float.abs (est -. 50_000.0) < 10_000.0);
  Alcotest.(check int) "items counted" 500 (V_range.items_processed t)

let test_accuracy_ranges () =
  let gen = Rng.create ~seed:4 in
  let pool = Workload.Ranges.uniform gen ~universe:1_000_000 ~count:300 ~max_len:4000 in
  let truth = float_of_int (Exact.range_union pool) in
  let epsilon = 0.25 in
  let failures = ref 0 in
  let trials = 25 in
  for i = 0 to trials - 1 do
    let t =
      V_range.create ~epsilon ~delta:0.2 ~log2_universe:20.0 ~seed:(2000 + i) ()
    in
    List.iter (V_range.process t) pool;
    if Float.abs (V_range.estimate t -. truth) > epsilon *. truth then incr failures;
    Alcotest.(check int) "never skipped" 0 (V_range.skipped_sets t)
  done;
  (* delta = 0.2 over 25 trials: observing > 10 failures is astronomically
     unlikely if the estimator is correct (in practice we see 0-1). *)
  Alcotest.(check bool)
    (Printf.sprintf "failures %d/25" !failures)
    true (!failures <= 5)

let test_accuracy_rectangles () =
  let gen = Rng.create ~seed:5 in
  let pool = Workload.Rectangles.uniform gen ~universe:10_000 ~dim:2 ~count:60 ~max_side:900 in
  let stream = List.concat [ pool; pool; List.rev pool ] in
  let truth = B.to_float (Exact.rectangle_union pool) in
  let epsilon = 0.25 in
  let failures = ref 0 in
  for i = 0 to 19 do
    let t =
      V_rect.create ~epsilon ~delta:0.2
        ~log2_universe:(2.0 *. log2f 10_000.0)
        ~seed:(3000 + i) ()
    in
    List.iter (V_rect.process t) stream;
    if Float.abs (V_rect.estimate t -. truth) > epsilon *. truth then incr failures
  done;
  Alcotest.(check bool) (Printf.sprintf "failures %d/20" !failures) true (!failures <= 4)

let test_accuracy_dnf () =
  let gen = Rng.create ~seed:6 in
  let terms = Workload.Dnf_terms.random gen ~nvars:20 ~count:60 ~width:6 in
  let truth = B.to_float (Exact.dnf_count ~nvars:20 terms) in
  let epsilon = 0.25 in
  let failures = ref 0 in
  for i = 0 to 19 do
    let t = V_dnf.create ~epsilon ~delta:0.2 ~log2_universe:20.0 ~seed:(4000 + i) () in
    List.iter (V_dnf.process t) terms;
    if Float.abs (V_dnf.estimate t -. truth) > epsilon *. truth then incr failures
  done;
  Alcotest.(check bool) (Printf.sprintf "failures %d/20" !failures) true (!failures <= 4)

let test_space_invariant () =
  (* Eq. 2 of the paper: |X| never exceeds B * (max level + 1). *)
  let gen = Rng.create ~seed:7 in
  let pool = Workload.Ranges.uniform gen ~universe:1_000_000 ~count:500 ~max_len:5000 in
  let t = V_range.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:20.0 ~seed:8 () in
  let p = V_range.params t in
  List.iter
    (fun s ->
      V_range.process t s;
      let bound = Params.bucket_bound p in
      if V_range.bucket_size t > bound then
        Alcotest.failf "bucket %d exceeds invariant %d" (V_range.bucket_size t) bound)
    pool;
  Alcotest.(check bool) "max tracked >= final" true
    (V_range.max_bucket_size t >= V_range.bucket_size t)

let test_last_occurrence_semantics () =
  (* Processing S then a superset S' must leave no element attributed to S:
     after covering everything with one final range, the bucket holds only
     elements of that range at its level. *)
  let t = V_range.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:20.0 ~seed:9 () in
  for i = 0 to 19 do
    V_range.process t (Range1d.create ~lo:(i * 1000) ~hi:((i * 1000) + 4999))
  done;
  let before = V_range.estimate t in
  (* One range covering the union exactly: the estimate must stay near the
     same value and every bucket element must belong to the cover. *)
  let cover = Range1d.create ~lo:0 ~hi:23_999 in
  V_range.process t cover;
  let after = V_range.estimate t in
  Alcotest.(check bool)
    (Printf.sprintf "cover keeps estimate sane: %.0f -> %.0f" before after)
    true
    (Float.abs (after -. 24_000.0) < 7_000.0);
  match V_range.sample_union t with
  | None -> Alcotest.fail "expected non-empty sketch"
  | Some x -> Alcotest.(check bool) "sample within cover" true (Range1d.mem cover x)

let test_union_sampling_members_only () =
  let gen = Rng.create ~seed:10 in
  let pool = Workload.Ranges.uniform gen ~universe:100_000 ~count:50 ~max_len:2000 in
  let t = V_range.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:17.0 ~seed:11 () in
  List.iter (V_range.process t) pool;
  for _ = 1 to 50 do
    match V_range.sample_union t with
    | None -> Alcotest.fail "sketch should not be empty"
    | Some x ->
      Alcotest.(check bool) "sampled element is in the union" true
        (List.exists (fun r -> Range1d.mem r x) pool)
  done

let test_oracle_call_accounting () =
  let t = V_range.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:20.0 ~seed:12 () in
  V_range.process t (Range1d.create ~lo:0 ~hi:999);
  V_range.process t (Range1d.create ~lo:500 ~hi:1499);
  let calls = V_range.oracle_calls t in
  Alcotest.(check int) "one cardinality call per item" 2 calls.cardinality;
  Alcotest.(check bool) "sampling happened" true (calls.sampling > 0);
  (* Membership scans only run against a non-empty bucket (second item). *)
  Alcotest.(check bool) "membership accounted" true (calls.membership > 0)

let test_estimate_nondestructive () =
  let gen = Rng.create ~seed:13 in
  let pool = Workload.Ranges.uniform gen ~universe:100_000 ~count:100 ~max_len:2000 in
  let t = V_range.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:17.0 ~seed:14 () in
  List.iter (V_range.process t) pool;
  let size_before = V_range.bucket_size t in
  ignore (V_range.estimate t);
  ignore (V_range.estimate t);
  Alcotest.(check int) "bucket untouched by estimate" size_before (V_range.bucket_size t)

let test_paper_mode_end_to_end () =
  (* The verbatim constants are huge but must of course still estimate
     correctly; small instance keeps the runtime sane. *)
  let gen = Rng.create ~seed:18 in
  let pool = Workload.Ranges.uniform gen ~universe:131_072 ~count:60 ~max_len:2000 in
  let truth = float_of_int (Exact.range_union pool) in
  let t =
    V_range.create ~mode:Params.Paper ~epsilon:0.4 ~delta:0.3 ~log2_universe:17.0
      ~seed:19 ()
  in
  List.iter (V_range.process t) pool;
  let est = V_range.estimate t in
  Alcotest.(check bool)
    (Printf.sprintf "paper-mode estimate %.0f near %.0f" est truth)
    true
    (Float.abs (est -. truth) <= 0.4 *. truth)

let test_horvitz_thompson_estimator () =
  let gen = Rng.create ~seed:15 in
  let pool = Workload.Ranges.uniform gen ~universe:1_000_000 ~count:300 ~max_len:4000 in
  let truth = float_of_int (Exact.range_union pool) in
  let t = V_range.create ~epsilon:0.25 ~delta:0.2 ~log2_universe:20.0 ~seed:16 () in
  List.iter (V_range.process t) pool;
  let ht = V_range.estimate_horvitz_thompson t in
  Alcotest.(check bool)
    (Printf.sprintf "HT estimate %.0f near %.0f" ht truth)
    true
    (Float.abs (ht -. truth) <= 0.25 *. truth);
  (* Deterministic given the sketch. *)
  Alcotest.(check (float 0.0)) "repeat queries agree" ht
    (V_range.estimate_horvitz_thompson t);
  (* Empty sketch. *)
  let empty = V_range.create ~epsilon:0.25 ~delta:0.2 ~log2_universe:20.0 ~seed:17 () in
  Alcotest.(check (float 0.0)) "empty" 0.0 (V_range.estimate_horvitz_thompson empty)

(* qcheck property: on arbitrary random range streams, the estimate stays
   within a wide window around the exact union (empirical error is ~5% at
   these parameters, so the 50% window has >10 sigma of headroom — any
   systematic estimator bug trips it immediately). *)
let prop_estimate_tracks_exact =
  let gen_ranges =
    QCheck.list_of_size (QCheck.Gen.int_range 1 60)
      (QCheck.pair (QCheck.int_range 0 99_000) (QCheck.int_range 0 999))
  in
  QCheck.Test.make ~name:"estimate within 50% of exact union (random streams)"
    ~count:60 gen_ranges (fun spec ->
      let pool = List.map (fun (lo, len) -> Range1d.create ~lo ~hi:(lo + len)) spec in
      let truth = float_of_int (Exact.range_union pool) in
      let t =
        V_range.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:17.0
          ~seed:(Hashtbl.hash spec) ()
      in
      List.iter (V_range.process t) pool;
      let est = V_range.estimate t in
      Float.abs (est -. truth) <= 0.5 *. truth)

(* qcheck property: processing the stream three times (every set repeated)
   never changes what is being measured — the union is idempotent and
   survival depends only on last occurrences.  Stated as the service oracle
   states the guarantee: over 40 random streams, count the estimates off
   by more than the estimator's own ε, and reject only when that many
   misses are implausible for a δ-failure estimator (binomial tail below
   1e-3).  An estimator that counts a re-occurrence as a new element
   misses on nearly every stream. *)
let prop_duplication_invariance =
  let epsilon = 0.3 and delta = 0.2 in
  let gen_ranges =
    QCheck.Gen.(list_size (int_range 1 40) (pair (int_range 0 99_000) (int_range 0 999)))
  in
  let streams =
    QCheck.make
      ~print:(fun specs -> Printf.sprintf "%d streams" (List.length specs))
      (QCheck.Gen.list_repeat 40 gen_ranges)
  in
  QCheck.Test.make ~name:"duplicated stream estimates the same union" ~count:1 streams
    (fun specs ->
      let missed spec =
        let pool = List.map (fun (lo, len) -> Range1d.create ~lo ~hi:(lo + len)) spec in
        let truth = float_of_int (Exact.range_union pool) in
        let t =
          V_range.create ~epsilon ~delta ~log2_universe:17.0 ~seed:(Hashtbl.hash (spec, 1)) ()
        in
        List.iter (V_range.process t) (pool @ List.rev pool @ pool);
        Float.abs (V_range.estimate t -. truth) > epsilon *. truth
      in
      let misses = List.length (List.filter missed specs) in
      let tail = Delphic_util.Special.binomial_tail ~n:(List.length specs) ~p:delta misses in
      if tail < 1e-3 then
        QCheck.Test.fail_reportf "%d of %d estimates miss by more than ε: P[X >= %d] = %.2g"
          misses (List.length specs) misses tail;
      true)

let suite =
  [
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "paper-mode constants dominate" `Quick test_params_paper_mode_larger;
    Alcotest.test_case "max_samples formula" `Quick test_max_samples_formula;
    Alcotest.test_case "empty stream" `Quick test_empty_stream;
    Alcotest.test_case "single set" `Quick test_single_set_exact_regime;
    Alcotest.test_case "duplicate-heavy stream" `Quick test_duplicate_heavy_stream;
    Alcotest.test_case "accuracy: ranges" `Quick test_accuracy_ranges;
    Alcotest.test_case "accuracy: rectangles (KMP)" `Quick test_accuracy_rectangles;
    Alcotest.test_case "accuracy: DNF" `Quick test_accuracy_dnf;
    Alcotest.test_case "space invariant (Eq. 2)" `Quick test_space_invariant;
    Alcotest.test_case "last-occurrence semantics" `Quick test_last_occurrence_semantics;
    Alcotest.test_case "union samples are members" `Quick test_union_sampling_members_only;
    Alcotest.test_case "oracle call accounting" `Quick test_oracle_call_accounting;
    Alcotest.test_case "estimate is non-destructive" `Quick test_estimate_nondestructive;
    Alcotest.test_case "paper-mode end to end" `Quick test_paper_mode_end_to_end;
    Alcotest.test_case "Horvitz-Thompson estimator" `Quick test_horvitz_thompson_estimator;
    QCheck_alcotest.to_alcotest prop_estimate_tracks_exact;
    QCheck_alcotest.to_alcotest prop_duplication_invariance;
  ]
