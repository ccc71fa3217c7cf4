(* Harness utilities: table rendering and the trial runner. *)

module Table = Delphic_harness.Table
module Trial = Delphic_harness.Trial

let test_table_alignment () =
  let out =
    Table.render ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "long-name"; "12345" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: sep :: _ ->
    Alcotest.(check bool) "header padded" true
      (String.length header >= String.length "long-name  value");
    Alcotest.(check bool) "separator dashes" true (String.contains sep '-')
  | _ -> Alcotest.fail "expected at least header and separator");
  (* All non-empty lines share the same width. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  (match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest
  | [] -> Alcotest.fail "no output")

let test_table_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Table.render: ragged row")
    (fun () -> ignore (Table.render ~header:[ "a"; "b" ] [ [ "only-one" ] ]))

let test_cells () =
  Alcotest.(check string) "zero" "0" (Table.cell_f 0.0);
  Alcotest.(check string) "plain" "12.35" (Table.cell_f 12.3456);
  Alcotest.(check string) "exponential" "1.234e+09" (Table.cell_f 1.2341e9);
  Alcotest.(check string) "int" "42" (Table.cell_i 42)

let test_timed () =
  let { Trial.value; seconds } = Trial.timed (fun () -> 21 * 2) in
  Alcotest.(check int) "value" 42 value;
  Alcotest.(check bool) "non-negative time" true (seconds >= 0.0)

let test_run_seeds () =
  let seen = ref [] in
  let outcomes =
    Trial.run ~trials:5 ~base_seed:100 (fun ~seed ->
        seen := seed :: !seen;
        seed)
  in
  Alcotest.(check (list int)) "seeds consecutive" [ 104; 103; 102; 101; 100 ] !seen;
  Alcotest.(check int) "outcomes" 5 (List.length outcomes)

let test_estimates_summary () =
  let est, err, _secs =
    Trial.estimates ~trials:4 ~base_seed:0 ~truth:100.0 (fun ~seed ->
        100.0 +. float_of_int seed)
  in
  Alcotest.(check int) "count" 4 (Delphic_util.Summary.count est);
  Alcotest.(check (float 1e-9)) "mean estimate" 101.5 (Delphic_util.Summary.mean est);
  Alcotest.(check (float 1e-9)) "mean rel err" 0.015 (Delphic_util.Summary.mean err)

let test_failure_rate () =
  let values = [ 100.0; 109.0; 111.0; 89.0; 150.0 ] in
  (* 111, 89 and 150 deviate by more than 10. *)
  Alcotest.(check (float 1e-9)) "3 of 5 outside 10%" 0.6
    (Trial.failure_rate ~epsilon:0.1 ~truth:100.0 values)

let test_parallel_map_matches_sequential () =
  let f x = (x * x) + 1 in
  let input = List.init 103 Fun.id in
  Alcotest.(check (list int)) "order preserved, results equal" (List.map f input)
    (Delphic_harness.Parallel.map ~domains:4 f input);
  Alcotest.(check (list int)) "single domain fallback" (List.map f input)
    (Delphic_harness.Parallel.map ~domains:1 f input);
  Alcotest.(check (list int)) "empty" [] (Delphic_harness.Parallel.map f []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Delphic_harness.Parallel.map f [ 1 ]);
  Alcotest.(check bool) "default domains >= 1" true
    (Delphic_harness.Parallel.default_domains () >= 1)

let test_parallel_map_with_estimators () =
  (* Realistic use: independent estimator trials across domains agree with
     sequential execution (everything is seed-deterministic). *)
  let module V = Delphic_core.Vatic.Make (Delphic_sets.Range1d) in
  let gen = Delphic_util.Rng.create ~seed:211 in
  let pool =
    Delphic_stream.Workload.Ranges.uniform gen ~universe:100_000 ~count:60 ~max_len:2000
  in
  let run seed =
    let t = V.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:17.0 ~seed () in
    List.iter (V.process t) pool;
    V.estimate t
  in
  let seeds = List.init 8 (fun i -> 400 + i) in
  Alcotest.(check (list (float 1e-9))) "parallel = sequential"
    (List.map run seeds)
    (Delphic_harness.Parallel.map ~domains:4 run seeds)

let test_parallel_map_skewed () =
  (* Work stealing: one item a thousand times heavier than the rest must not
     serialise the pool behind a fixed chunk split — here we only pin the
     correctness half (order preserved, every item done exactly once). *)
  let calls = Atomic.make 0 in
  let f x =
    Atomic.incr calls;
    let spins = if x = 7 then 200_000 else 200 in
    let acc = ref 0 in
    for i = 1 to spins do
      acc := !acc + (i mod 3)
    done;
    (x, !acc land 1)
  in
  let input = List.init 64 Fun.id in
  let out = Delphic_harness.Parallel.map ~domains:4 f input in
  Alcotest.(check (list int)) "order preserved under skew" input (List.map fst out);
  Alcotest.(check int) "each item computed once" 64 (Atomic.get calls)

let suite =
  [
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "table rejects ragged rows" `Quick test_table_ragged_rejected;
    Alcotest.test_case "cell formatting" `Quick test_cells;
    Alcotest.test_case "timed" `Quick test_timed;
    Alcotest.test_case "run assigns consecutive seeds" `Quick test_run_seeds;
    Alcotest.test_case "estimates summary" `Quick test_estimates_summary;
    Alcotest.test_case "failure rate" `Quick test_failure_rate;
    Alcotest.test_case "parallel map matches sequential" `Quick test_parallel_map_matches_sequential;
    Alcotest.test_case "parallel estimator trials" `Quick test_parallel_map_with_estimators;
    Alcotest.test_case "parallel map under skew" `Quick test_parallel_map_skewed;
  ]
