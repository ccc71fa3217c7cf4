(* Extensions beyond the paper's pseudocode: the CVM distinct-elements
   estimator, sketch checkpoint copies, the oracle-counting wrapper, stream
   order transformations, and CSV table output. *)

module Rng = Delphic_util.Rng
module Range1d = Delphic_sets.Range1d
module Exact = Delphic_sets.Exact
module Workload = Delphic_stream.Workload
module Cvm = Delphic_core.Cvm
module V_range = Delphic_core.Vatic.Make (Range1d)
module Counting_range = Delphic_family.Family.Counting (Range1d)
module V_counting = Delphic_core.Vatic.Make (Counting_range)

(* --- CVM --- *)

let test_cvm_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Cvm.create ~epsilon:0.0 ~delta:0.1 ~stream_bound:10 ~seed:1 ());
  expect_invalid (fun () ->
      Cvm.create ~thresh:1 ~epsilon:0.2 ~delta:0.1 ~stream_bound:10 ~seed:1 ())

let test_cvm_small_exact () =
  (* Below the buffer size nothing is ever evicted: exact count. *)
  let t = Cvm.create ~thresh:1000 ~epsilon:0.2 ~delta:0.1 ~stream_bound:100 ~seed:2 () in
  for x = 1 to 50 do
    Cvm.add t x;
    Cvm.add t x
  done;
  Alcotest.(check (float 0.0)) "exact when small" 50.0 (Cvm.estimate t);
  Alcotest.(check int) "level 0" 0 (Cvm.level t)

let test_cvm_accuracy () =
  let truth = 50_000 in
  let failures = ref 0 in
  for i = 0 to 9 do
    let t =
      Cvm.create ~epsilon:0.15 ~delta:0.1 ~stream_bound:(3 * truth) ~seed:(10 + i) ()
    in
    (* Stream with duplicates: every value appears up to 3 times. *)
    let rng = Rng.create ~seed:(100 + i) in
    for x = 0 to truth - 1 do
      for _ = 0 to Rng.int rng 3 do
        Cvm.add t x
      done
    done;
    let est = Cvm.estimate t in
    if Float.abs (est -. float_of_int truth) > 0.15 *. float_of_int truth then
      incr failures;
    Alcotest.(check bool) "buffer bounded" true (Cvm.buffer_size t < Cvm.thresh t)
  done;
  Alcotest.(check bool) (Printf.sprintf "failures %d/10" !failures) true (!failures <= 2)

let test_cvm_agrees_with_vatic_semantics () =
  (* CVM on singletons and VATIC on the same values should both land near
     the distinct count. *)
  let rng = Rng.create ~seed:141 in
  let values = List.init 30_000 (fun _ -> Rng.int rng 8192) in
  let truth = float_of_int (Exact.distinct values) in
  let cvm = Cvm.create ~epsilon:0.2 ~delta:0.1 ~stream_bound:30_000 ~seed:3 () in
  List.iter (Cvm.add cvm) values;
  Alcotest.(check bool) "cvm close" true
    (Float.abs (Cvm.estimate cvm -. truth) <= 0.2 *. truth)

(* --- checkpoint copies: the one-source fold --- *)

let test_snapshot_roundtrip () =
  let gen = Rng.create ~seed:142 in
  let pool = Workload.Ranges.uniform gen ~universe:1_000_000 ~count:150 ~max_len:4000 in
  let first_half, second_half =
    List.filteri (fun i _ -> i < 75) pool, List.filteri (fun i _ -> i >= 75) pool
  in
  let t = V_range.create ~epsilon:0.25 ~delta:0.2 ~log2_universe:20.0 ~seed:4 () in
  List.iter (V_range.process t) first_half;
  let src = V_range.source t in
  Alcotest.(check int) "items captured" 75 src.V_range.header.V_range.items;
  Alcotest.(check int) "entries = bucket" (V_range.bucket_size t) src.V_range.size;
  (* Copy into a fresh estimator and continue the stream. *)
  let t' = V_range.fold [ src ] ~seed:99 in
  Alcotest.(check int) "restored bucket size" (V_range.bucket_size t)
    (V_range.bucket_size t');
  Alcotest.(check int) "restored items" 75 (V_range.items_processed t');
  List.iter (V_range.process t') second_half;
  let truth = float_of_int (Exact.range_union pool) in
  let est = V_range.estimate t' in
  Alcotest.(check bool)
    (Printf.sprintf "resumed estimate %.0f near %.0f" est truth)
    true
    (Float.abs (est -. truth) <= 0.35 *. truth)

let test_snapshot_preserves_instrumentation () =
  let t = V_range.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:20.0 ~seed:5 () in
  V_range.process t (Range1d.create ~lo:0 ~hi:999);
  let t' = V_range.fold [ V_range.source t ] ~seed:6 in
  let c = V_range.oracle_calls t and c' = V_range.oracle_calls t' in
  Alcotest.(check int) "sampling calls survive" c.V_range.sampling c'.V_range.sampling;
  Alcotest.(check int) "max bucket survives" (V_range.max_bucket_size t)
    (V_range.max_bucket_size t')

let test_snapshot_rectangles () =
  (* Structured elements (int arrays) through the checkpoint path. *)
  let module VR = Delphic_core.Vatic.Make (Delphic_sets.Rectangle) in
  let gen = Rng.create ~seed:144 in
  let pool =
    Workload.Rectangles.uniform gen ~universe:100_000 ~dim:2 ~count:80 ~max_side:8000
  in
  let t = VR.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:34.0 ~seed:8 () in
  List.iter (VR.process t) pool;
  let t' = VR.fold [ VR.source t ] ~seed:77 in
  Alcotest.(check int) "bucket preserved" (VR.bucket_size t) (VR.bucket_size t');
  let truth = Delphic_util.Bigint.to_float (Exact.rectangle_union pool) in
  let est = VR.estimate t' in
  Alcotest.(check bool)
    (Printf.sprintf "restored estimate %.0f near %.0f" est truth)
    true
    (Float.abs (est -. truth) <= 0.4 *. truth)

(* --- Counting oracle wrapper --- *)

let test_counting_wrapper () =
  Counting_range.reset ();
  let t = V_counting.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:20.0 ~seed:7 () in
  V_counting.process t (Range1d.create ~lo:0 ~hi:9999);
  V_counting.process t (Range1d.create ~lo:5000 ~hi:14_999);
  let internal = V_counting.oracle_calls t in
  (* The external wrapper and the estimator's own accounting must agree. *)
  Alcotest.(check int) "cardinality calls" internal.V_counting.cardinality
    (Counting_range.cardinality_calls ());
  Alcotest.(check int) "sampling calls" internal.V_counting.sampling
    (Counting_range.sample_calls ());
  Alcotest.(check int) "membership calls" internal.V_counting.membership
    (Counting_range.mem_calls ());
  Alcotest.(check int) "total adds up"
    (internal.V_counting.membership + internal.V_counting.cardinality
   + internal.V_counting.sampling)
    (Counting_range.total_calls ());
  Counting_range.reset ();
  Alcotest.(check int) "reset" 0 (Counting_range.total_calls ())

(* --- stream orders --- *)

let test_orders () =
  let rng = Rng.create ~seed:143 in
  let items = [ 1; 2; 3; 4; 5 ] in
  let shuffled = Workload.Orders.shuffled rng items in
  Alcotest.(check (list int)) "shuffle is a permutation" items
    (List.sort compare shuffled);
  Alcotest.(check (list int)) "sorted ascending" [ 1; 2; 3; 4; 5 ]
    (Workload.Orders.sorted_by float_of_int shuffled);
  Alcotest.(check (list int)) "sorted descending" [ 5; 4; 3; 2; 1 ]
    (Workload.Orders.sorted_by_desc float_of_int shuffled);
  Alcotest.(check (list int)) "bursty" [ 1; 1; 2; 2 ]
    (Workload.Orders.bursty ~copies:2 [ 1; 2 ]);
  Alcotest.(check (list int)) "interleaved" [ 1; 2; 1; 2 ]
    (Workload.Orders.interleaved ~copies:2 [ 1; 2 ]);
  (match Workload.Orders.bursty ~copies:0 [ 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

(* --- CSV table output --- *)

let capture_stdout f =
  let path = Filename.temp_file "delphic_table" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  contents

let test_csv_output () =
  let header = [ "name"; "value" ] in
  let rows = [ [ "a,b"; "1" ]; [ "plain"; "2" ] ] in
  let out =
    capture_stdout (fun () ->
        Delphic_harness.Table.set_output `Csv;
        Delphic_harness.Table.print ~title:"T" ~header rows;
        Delphic_harness.Table.set_output `Text)
  in
  Alcotest.(check bool) "title commented" true
    (String.length out > 0 && String.sub out 0 1 = "\n" || String.length out > 0);
  Alcotest.(check bool) "has quoted comma cell" true
    (let rec contains i =
       i + 7 <= String.length out
       && (String.sub out i 7 = "\"a,b\",1" || contains (i + 1))
     in
     contains 0);
  Alcotest.(check bool) "has csv header" true
    (let rec contains i =
       i + 10 <= String.length out
       && (String.sub out i 10 = "name,value" || contains (i + 1))
     in
     contains 0)

let suite =
  [
    Alcotest.test_case "cvm: validation" `Quick test_cvm_validation;
    Alcotest.test_case "cvm: exact when small" `Quick test_cvm_small_exact;
    Alcotest.test_case "cvm: accuracy" `Quick test_cvm_accuracy;
    Alcotest.test_case "cvm: matches distinct count" `Quick test_cvm_agrees_with_vatic_semantics;
    Alcotest.test_case "snapshot roundtrip resumes stream" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot preserves instrumentation" `Quick test_snapshot_preserves_instrumentation;
    Alcotest.test_case "snapshot with structured elements" `Quick test_snapshot_rectangles;
    Alcotest.test_case "counting oracle wrapper" `Quick test_counting_wrapper;
    Alcotest.test_case "stream orders" `Quick test_orders;
    Alcotest.test_case "csv output" `Quick test_csv_output;
  ]
