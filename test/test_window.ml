(* Windowed estimation as [WIN] serves it: VATIC fed with [process ~ts]
   and read through [estimate_window].  Invariants (a cutoff of -∞, or one
   before the first arrival, equals the full Horvitz–Thompson estimate), and
   windowed accuracy against exact truth recomputed on the trailing suffix —
   over rect/dnf/cov/singleton pools under Poisson, bursty and Zipf-item
   arrival traces.

   The windowed Delphic union |{x : last occurrence >= cutoff}| equals the
   plain union of the suffix sets (any element of a suffix set has its last
   occurrence in the suffix), so the exact baselines need no new machinery:
   filter the trace, recompute the union. *)

module Rng = Delphic_util.Rng
module B = Delphic_util.Bigint
module Workload = Delphic_stream.Workload
module T = Workload.Timestamped
module Exact = Delphic_sets.Exact
module Range1d = Delphic_sets.Range1d
module Singleton = Delphic_sets.Singleton
module VR = Delphic_core.Vatic.Make (Range1d)

(* --- the accuracy harness: estimate vs suffix-exact ---

   Documented bound (DESIGN.md "Windowed queries"): a windowed query is the
   Horvitz–Thompson sum over sampled entries at or after the cutoff.  It is
   unbiased for the suffix union, with the per-query (ε, δ) guarantee of the
   underlying sketch when the window holds a constant fraction of the
   stream; we run [trials] independent seeds and allow the δ-rate failures
   plus sampling-thinning slack by requiring at most 25% of trials outside
   ε_eff = 1.8ε relative error. *)
let check_windowed (type s e) ~name ~trials ~epsilon ~log2_universe ~truth_of
    ~events ~windows
    (module F : Delphic_family.Family.FAMILY with type t = s and type elt = e) =
  let module V = Delphic_core.Vatic.Make (F) in
  let now =
    List.fold_left (fun acc (e : s T.event) -> Float.max acc e.T.at) 0.0 events
  in
  List.iter
    (fun window ->
      let cutoff = now -. window in
      let suffix = List.filter (fun (e : s T.event) -> e.T.at >= cutoff) events in
      let truth = truth_of (T.items suffix) in
      let eps_eff = 1.8 *. epsilon in
      let failures = ref 0 in
      for i = 0 to trials - 1 do
        let v =
          V.create ~epsilon ~delta:0.2 ~log2_universe ~seed:(4200 + (31 * i)) ()
        in
        List.iter (fun (e : s T.event) -> V.process ~ts:e.T.at v e.T.item) events;
        let est = V.estimate_window v ~cutoff in
        if truth = 0.0 then begin
          (* nothing survives the cutoff: the HT sum must be exactly 0 *)
          if est <> 0.0 then incr failures
        end
        else if Float.abs (est -. truth) > eps_eff *. truth then incr failures
      done;
      if 4 * !failures > trials then
        Alcotest.failf "%s (window %g): %d/%d trials outside %.2f of suffix truth"
          name window !failures trials eps_eff)
    windows

(* --- range streams under a Poisson clock --- *)

let range_events ~seed ~count ~stamp =
  let gen = Rng.create ~seed in
  let pool = Workload.Ranges.uniform gen ~universe:1_000_000 ~count ~max_len:5_000 in
  stamp gen pool

let range_truth pool = float_of_int (Exact.range_union pool)

let test_ranges_poisson_tagged () =
  let events =
    range_events ~seed:301 ~count:240 ~stamp:(fun gen pool ->
        T.poisson gen ~rate:1.0 ~start:0.0 pool)
  in
  check_windowed ~name:"ranges/poisson/tagged" ~trials:10 ~epsilon:0.25
    ~log2_universe:20.0 ~truth_of:range_truth ~events
    ~windows:[ 60.0; 150.0; infinity ]
    (module Range1d)

(* --- rect / dnf / cov pools, one arrival shape each --- *)

let test_rect_poisson () =
  let gen = Rng.create ~seed:303 in
  let pool =
    Workload.Rectangles.uniform gen ~universe:4096 ~dim:2 ~count:150 ~max_side:200
  in
  let events = T.poisson gen ~rate:1.0 ~start:0.0 pool in
  check_windowed ~name:"rect/poisson/tagged" ~trials:8 ~epsilon:0.25
    ~log2_universe:24.0
    ~truth_of:(fun p -> B.to_float (Exact.rectangle_union p))
    ~events
    ~windows:[ 50.0; infinity ]
    (module Delphic_sets.Rectangle)

let dnf_nvars = 26

let dnf_bursty_events () =
  let gen = Rng.create ~seed:304 in
  let pool = Workload.Dnf_terms.random gen ~nvars:dnf_nvars ~count:120 ~width:6 in
  T.bursty gen ~quiet:20.0 ~burst_len:30 ~burst_rate:2.0 ~start:0.0 pool

(* DNF assignments recur across the whole trace (every satisfying assignment
   of a term re-occurs with each later overlapping term): the last-occurrence
   tags must keep the refreshed entries inside the window. *)
let test_dnf_bursty () =
  let events = dnf_bursty_events () in
  check_windowed ~name:"dnf/bursty/tagged" ~trials:8 ~epsilon:0.25
    ~log2_universe:(float_of_int dnf_nvars)
    ~truth_of:(fun p -> B.to_float (Exact.dnf_count ~nvars:dnf_nvars p))
    ~events
    ~windows:[ 40.0; infinity ]
    (module Delphic_sets.Dnf)

let test_cov_diurnal () =
  let nbits = 14 and strength = 2 in
  let gen = Rng.create ~seed:305 in
  let vectors = Workload.Coverage_suites.random gen ~nbits ~count:120 ~bias:0.4 in
  let pool = Workload.Coverage_suites.coverage_sets ~strength vectors in
  let stamped = T.diurnal gen ~rate:1.0 ~period:60.0 ~swing:0.8 ~start:0.0 pool in
  (* keep (vector, event) pairs aligned so suffix truth uses the vectors *)
  let paired = List.combine vectors stamped in
  let truth_of_suffix cutoff =
    let vs =
      List.filter_map
        (fun (v, (e : Delphic_sets.Coverage.t T.event)) ->
          if e.T.at >= cutoff then Some v else None)
        paired
    in
    B.to_float (Exact.coverage_union ~strength vs)
  in
  let now = List.fold_left (fun acc e -> Float.max acc e.T.at) 0.0 stamped in
  let module V = Delphic_core.Vatic.Make (Delphic_sets.Coverage) in
  List.iter
    (fun window ->
      let truth = truth_of_suffix (now -. window) in
      let failures = ref 0 in
      let trials = 8 in
      for i = 0 to trials - 1 do
        let v =
          V.create ~epsilon:0.25 ~delta:0.2
            ~log2_universe:
              (B.log2 (Delphic_sets.Coverage.universe_size ~n:nbits ~strength))
            ~seed:(5200 + (31 * i))
            ()
        in
        List.iter (fun (e : _ T.event) -> V.process ~ts:e.T.at v e.T.item) stamped;
        let est = V.estimate_window v ~cutoff:(now -. window) in
        if Float.abs (est -. truth) > 0.45 *. truth then incr failures
      done;
      if 4 * !failures > trials then
        Alcotest.failf "cov/diurnal (window %g): %d/%d outside bound" window
          !failures trials)
    [ 60.0; infinity ]

(* --- Zipf singleton trace: heavy re-occurrence refreshes timestamps --- *)

let test_singletons_zipf () =
  let gen = Rng.create ~seed:306 in
  let pool = Workload.Singletons.zipf gen ~universe:40_000 ~count:400 ~exponent:1.1 in
  let events = T.poisson gen ~rate:2.0 ~start:0.0 pool in
  check_windowed ~name:"singletons/zipf/tagged" ~trials:10 ~epsilon:0.25
    ~log2_universe:16.0
    ~truth_of:(fun p -> float_of_int (Exact.distinct (List.map Singleton.value p)))
    ~events
    ~windows:[ 60.0; infinity ]
    (module Singleton)

(* --- qcheck: windowed = full when the window covers the whole trace,
   over random range traces.  [estimate_window] folds the bucket while
   [estimate_horvitz_thompson] reads the level histogram, so equality checks
   that the two views of the sketch agree. --- *)

let gen_trace =
  QCheck.Gen.(
    let* seed = int_range 1 10_000 in
    let* count = int_range 1 120 in
    let* rate = float_range 0.2 4.0 in
    let* burst = bool in
    return (seed, count, rate, burst))

let build_trace (seed, count, rate, burst) =
  let gen = Rng.create ~seed in
  let pool = Workload.Ranges.uniform gen ~universe:100_000 ~count ~max_len:900 in
  if burst then T.bursty gen ~quiet:10.0 ~burst_len:16 ~burst_rate:rate ~start:0.0 pool
  else T.poisson gen ~rate ~start:0.0 pool

let sketch_of_trace ((seed, _, _, _) as cfg) =
  let events = build_trace cfg in
  let v = VR.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:17.0 ~seed () in
  List.iter (fun (e : _ T.event) -> VR.process ~ts:e.T.at v e.T.item) events;
  (events, v)

let prop_inf_window_is_full =
  QCheck.Test.make ~name:"window = inf equals the full estimate (random)" ~count:40
    (QCheck.make gen_trace) (fun cfg ->
      let _, v = sketch_of_trace cfg in
      VR.estimate_window v ~cutoff:neg_infinity = VR.estimate_horvitz_thompson v)

(* a cutoff before the first arrival is the same as no window *)
let prop_covering_window_is_full =
  QCheck.Test.make ~name:"covering window equals the full estimate (random)"
    ~count:40 (QCheck.make gen_trace) (fun cfg ->
      let events, v = sketch_of_trace cfg in
      let first = List.fold_left (fun acc e -> Float.min acc e.T.at) infinity events in
      VR.estimate_window v ~cutoff:(first -. 10.0) = VR.estimate_horvitz_thompson v)

let test_reoccurrence_refreshes () =
  let v = VR.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:17.0 ~seed:17 () in
  let a = Range1d.create ~lo:0 ~hi:999 in
  VR.process ~ts:0.0 v a;
  VR.process ~ts:50.0 v (Range1d.create ~lo:5_000 ~hi:5_999);
  VR.process ~ts:100.0 v a;
  (* [a]'s last occurrence is t=100: a 10 s window must keep it whole *)
  let est = VR.estimate_window v ~cutoff:90.0 in
  Alcotest.(check bool)
    (Printf.sprintf "refreshed window estimate %g near 1000" est)
    true
    (Float.abs (est -. 1000.0) <= 450.0)

(* --- timestamped workload generators --- *)

let test_timestamped_generators () =
  let items = List.init 200 (fun i -> i) in
  let non_decreasing evs =
    let rec go = function
      | a :: (b :: _ as tl) -> a.T.at <= b.T.at && go tl
      | _ -> true
    in
    go evs
  in
  List.iter
    (fun (name, evs) ->
      Alcotest.(check bool) (name ^ " stamps non-decreasing") true (non_decreasing evs);
      Alcotest.(check bool) (name ^ " items preserved") true (T.items evs = items);
      Alcotest.(check bool) (name ^ " span non-negative") true (T.span evs >= 0.0))
    [
      ("poisson", T.poisson (Rng.create ~seed:21) ~rate:3.0 ~start:5.0 items);
      ("constant", T.constant ~rate:10.0 ~start:0.0 items);
      ( "bursty",
        T.bursty (Rng.create ~seed:22) ~quiet:7.0 ~burst_len:13 ~burst_rate:5.0
          ~start:0.0 items );
      ( "diurnal",
        T.diurnal (Rng.create ~seed:23) ~rate:2.0 ~period:30.0 ~swing:0.9
          ~start:0.0 items );
    ];
  (* constant rate is exactly uniform *)
  let c = T.constant ~rate:4.0 ~start:1.0 items in
  Alcotest.(check (float 1e-9)) "constant span" (199.0 /. 4.0) (T.span c);
  (match T.diurnal (Rng.create ~seed:1) ~rate:1.0 ~period:10.0 ~swing:1.5 ~start:0.0 [ 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "swing > 1 must be rejected");
  match T.poisson (Rng.create ~seed:1) ~rate:0.0 ~start:0.0 [ 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate 0 must be rejected"

(* A worker answers a forwarded EST or WIN on its only thread, so neither
   read may allocate per bucket entry.  Two sketch-regime rect sessions of
   different sizes (about 3k and 12k entries) must each stay under one
   bound, and the windowed answer must equal the per-entry Horvitz–Thompson
   sum over the snapshot's entries bit for bit.  Only meaningful in native
   code. *)
let test_sketch_reads_allocate_no_entry () =
  let module Families = Delphic_server.Families in
  let module Io = Delphic_core.Snapshot_io in
  let sketch ~epsilon ~count =
    let f =
      Result.get_ok
        (Families.create ~family:Delphic_server.Protocol.Rect ~epsilon ~delta:0.2
           ~log2_universe:40.0 ~seed:7)
    in
    let gen = Rng.create ~seed:8 in
    List.iteri
      (fun i b ->
        let lo = Delphic_sets.Rectangle.lo b and hi = Delphic_sets.Rectangle.hi b in
        Families.add f ~ts:(float_of_int i) ~lineno:(i + 1)
          (Printf.sprintf "%d %d %d %d" lo.(0) hi.(0) lo.(1) hi.(1)))
      (Workload.Rectangles.uniform gen ~universe:1_000_000 ~dim:2 ~count ~max_side:60_000);
    Alcotest.(check bool) "sketch regime" false (Families.is_exact f);
    f
  in
  List.iter
    (fun (epsilon, count) ->
      let f = sketch ~epsilon ~count in
      let cutoff = float_of_int (count / 2) in
      let reference =
        List.fold_left
          (fun acc (l, ts, _) -> if ts >= cutoff then acc +. Float.ldexp 1.0 l else acc)
          0.0
          (Io.sketch_entries (Families.to_io f))
      in
      Alcotest.(check (float 0.0)) "windowed sum is the per-entry sum" reference
        (Families.estimate_window f ~cutoff);
      if Sys.backend_type = Sys.Native then begin
        let words what read =
          let before = Gc.minor_words () in
          ignore (Sys.opaque_identity (read ()));
          let used = Gc.minor_words () -. before in
          Alcotest.(check bool)
            (Printf.sprintf "%s over %d entries: %.0f minor words" what (Families.entries f) used)
            true (used < 256.0)
        in
        words "estimate" (fun () -> Families.estimate f);
        words "estimate_window" (fun () -> Families.estimate_window f ~cutoff)
      end)
    [ (0.4, 400); (0.2, 1024) ]

let suite =
  [
    Alcotest.test_case "ranges poisson (tagged)" `Quick test_ranges_poisson_tagged;
    Alcotest.test_case "rect poisson" `Quick test_rect_poisson;
    Alcotest.test_case "dnf bursty (tagged)" `Quick test_dnf_bursty;
    Alcotest.test_case "cov diurnal" `Quick test_cov_diurnal;
    Alcotest.test_case "singletons zipf" `Quick test_singletons_zipf;
    QCheck_alcotest.to_alcotest prop_inf_window_is_full;
    QCheck_alcotest.to_alcotest prop_covering_window_is_full;
    Alcotest.test_case "re-occurrence refreshes" `Quick test_reoccurrence_refreshes;
    Alcotest.test_case "timestamped generators" `Quick test_timestamped_generators;
    Alcotest.test_case "sketch reads allocate nothing per entry" `Quick
      test_sketch_reads_allocate_no_entry;
  ]
