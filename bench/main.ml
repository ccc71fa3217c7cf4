(* Benchmark harness.

   Two layers:
   1. bechamel micro-benchmarks — one Test.make per experiment table,
      measuring the steady-state per-operation cost of the code path that
      table exercises (update time for E1-E6/E9, sketch insertions for E7,
      union sampling for E10);
   2. the macro experiment tables E1-E13 and ablations A1-A4 from
      EXPERIMENTS.md, printed after the micro-benchmarks.

   Run with:  dune exec bench/main.exe            (everything)
              dune exec bench/main.exe -- micro   (micro-benchmarks only)
              dune exec bench/main.exe -- macro   (experiment tables only)
              dune exec bench/main.exe -- repl    (replication-factor sweep)
              dune exec bench/main.exe -- conns   (idle-connection scaling sweep)

   The deployed-cluster numbers (ingest, EST/WIN/EXPR latency, WAL cost)
   come from perfbench/, which runs repeated trials with their spread.
   Any benchmarking mode also accepts [--json FILE] to write the measured
   rows as a JSON array of {name, ns_per_op, ops_per_s} objects; the repl
   mode defaults to BENCH_repl.json and the conns mode to BENCH_conns.json. *)

open Bechamel
open Toolkit
module Rng = Delphic_util.Rng
module Rectangle = Delphic_sets.Rectangle
module Range1d = Delphic_sets.Range1d
module Workload = Delphic_stream.Workload

module Vatic_rect = Delphic_core.Vatic.Make (Rectangle)
module Vatic_range = Delphic_core.Vatic.Make (Range1d)
module Vatic_dnf = Delphic_core.Vatic.Make (Delphic_sets.Dnf)
module Vatic_cov = Delphic_core.Vatic.Make (Delphic_sets.Coverage)
module Vatic_single = Delphic_core.Vatic.Make (Delphic_sets.Singleton)
module Aps_rect = Delphic_core.Aps_estimator.Make (Rectangle)
module Wrap_range = Delphic_sets.Approx_wrap.Make (Range1d)
module Ext_vatic_range = Delphic_core.Ext_vatic.Make (Wrap_range)
module Xs_dnf = Delphic_core.Xor_sketch.Make (Delphic_sets.Dnf)

(* Steady-state per-item processing cost: pre-fill the estimator with the
   whole stream once, then measure re-processing items cyclically — the
   bucket sits at its equilibrium size, which is what Theorem 1.2's update
   bound describes. *)
let cycling items process =
  let items = Array.of_list items in
  let i = ref 0 in
  fun () ->
    process items.(!i);
    i := (!i + 1) mod Array.length items

let e1_kmp_update () =
  let gen = Rng.create ~seed:1 in
  let pool = Workload.Rectangles.uniform gen ~universe:1_000_000 ~dim:2 ~count:150 ~max_side:60_000 in
  let t = Vatic_rect.create ~epsilon:0.2 ~delta:0.2 ~log2_universe:40.0 ~seed:2 () in
  List.iter (Vatic_rect.process t) pool;
  cycling pool (Vatic_rect.process t)

let e2_aps_update () =
  let gen = Rng.create ~seed:1 in
  let pool = Workload.Rectangles.uniform gen ~universe:1_000_000 ~dim:2 ~count:150 ~max_side:60_000 in
  let t =
    Aps_rect.create ~epsilon:0.2 ~delta:0.2 ~log2_universe:40.0 ~stream_length:10_000
      ~seed:2 ()
  in
  List.iter (Aps_rect.process t) pool;
  cycling pool (Aps_rect.process t)

let e3_kmp_update_d4 () =
  let gen = Rng.create ~seed:3 in
  let pool = Workload.Rectangles.uniform gen ~universe:65536 ~dim:4 ~count:100 ~max_side:1000 in
  let t = Vatic_rect.create ~epsilon:0.33 ~delta:0.2 ~log2_universe:64.0 ~seed:4 () in
  List.iter (Vatic_rect.process t) pool;
  cycling pool (Vatic_rect.process t)

let e4_dnf_update () =
  let gen = Rng.create ~seed:5 in
  let pool = Workload.Dnf_terms.random gen ~nvars:40 ~count:150 ~width:10 in
  let t = Vatic_dnf.create ~epsilon:0.2 ~delta:0.2 ~log2_universe:40.0 ~seed:6 () in
  List.iter (Vatic_dnf.process t) pool;
  cycling pool (Vatic_dnf.process t)

let e5_ext_vatic_update () =
  let gen = Rng.create ~seed:7 in
  let alpha = 0.2 and gamma = 0.05 and eta = 0.1 in
  let pool =
    List.map
      (Wrap_range.wrap ~alpha ~gamma ~eta)
      (Workload.Ranges.uniform gen ~universe:1_000_000 ~count:300 ~max_len:4000)
  in
  let t =
    Ext_vatic_range.create ~epsilon:0.2 ~delta:0.2 ~log2_universe:20.0 ~alpha ~gamma
      ~eta ~seed:8 ()
  in
  List.iter (Ext_vatic_range.process t) pool;
  cycling pool (Ext_vatic_range.process t)

let e6_coverage_update () =
  let gen = Rng.create ~seed:9 in
  let vectors = Workload.Coverage_suites.random gen ~nbits:14 ~count:300 ~bias:0.5 in
  let pool = Workload.Coverage_suites.coverage_sets ~strength:2 vectors in
  let log2u =
    Delphic_util.Bigint.log2 (Delphic_sets.Coverage.universe_size ~n:14 ~strength:2)
  in
  let t = Vatic_cov.create ~epsilon:0.15 ~delta:0.2 ~log2_universe:log2u ~seed:10 () in
  List.iter (Vatic_cov.process t) pool;
  cycling pool (Vatic_cov.process t)

let e7_vatic_singleton_update () =
  let gen = Rng.create ~seed:11 in
  let pool = Workload.Singletons.uniform gen ~universe:(1 lsl 20) ~count:5000 in
  let t = Vatic_single.create ~epsilon:0.25 ~delta:0.2 ~log2_universe:20.0 ~seed:12 () in
  List.iter (Vatic_single.process t) pool;
  cycling pool (Vatic_single.process t)

let e7_bottom_k_update () =
  let gen = Rng.create ~seed:11 in
  let values =
    List.map Delphic_sets.Singleton.value
      (Workload.Singletons.uniform gen ~universe:(1 lsl 20) ~count:5000)
  in
  let bk = Delphic_core.Bottom_k.create ~epsilon:0.25 () in
  List.iter (Delphic_core.Bottom_k.add bk) values;
  cycling values (Delphic_core.Bottom_k.add bk)

let e7_hll_update () =
  let gen = Rng.create ~seed:11 in
  let values =
    List.map Delphic_sets.Singleton.value
      (Workload.Singletons.uniform gen ~universe:(1 lsl 20) ~count:5000)
  in
  let hll = Delphic_core.Hyperloglog.create ~bits:12 () in
  List.iter (Delphic_core.Hyperloglog.add hll) values;
  cycling values (Delphic_core.Hyperloglog.add hll)

let e9_hypervolume_update () =
  let gen = Rng.create ~seed:13 in
  let pool =
    List.map Delphic_sets.Hypervolume.to_rectangle
      (Workload.Hypervolumes.pareto_front gen ~universe:512 ~dim:3 ~count:40)
  in
  let t = Vatic_rect.create ~epsilon:0.2 ~delta:0.2 ~log2_universe:27.0 ~seed:14 () in
  List.iter (Vatic_rect.process t) pool;
  cycling pool (Vatic_rect.process t)

let e10_union_sample () =
  let gen = Rng.create ~seed:15 in
  let pool = Workload.Ranges.uniform gen ~universe:1_000_000 ~count:200 ~max_len:4000 in
  let t = Vatic_range.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:20.0 ~seed:16 () in
  List.iter (Vatic_range.process t) pool;
  fun () -> ignore (Vatic_range.sample_union t)

let e11_bursty_update () =
  let gen = Rng.create ~seed:17 in
  let pool =
    Workload.Orders.bursty ~copies:8
      (Workload.Ranges.uniform gen ~universe:1_000_000 ~count:100 ~max_len:4000)
  in
  let t = Vatic_range.create ~epsilon:0.25 ~delta:0.2 ~log2_universe:20.0 ~seed:18 () in
  List.iter (Vatic_range.process t) pool;
  cycling pool (Vatic_range.process t)

let e12_xor_sketch_update () =
  let gen = Rng.create ~seed:19 in
  let pool = Workload.Dnf_terms.random gen ~nvars:26 ~count:150 ~width:8 in
  let t = Xs_dnf.create ~epsilon:0.25 ~delta:0.2 ~nvars:26 ~seed:20 () in
  List.iter (Xs_dnf.process t) pool;
  cycling pool (Xs_dnf.process t)

let a_series_lean_update () =
  (* The ablation tables vary constants; the micro bench pins the leanest
     configuration (capacity scale 1) for comparison against E1's default. *)
  let gen = Rng.create ~seed:21 in
  let pool = Workload.Ranges.uniform gen ~universe:1_000_000 ~count:150 ~max_len:4000 in
  let t =
    Vatic_range.create ~capacity_scale:1.0 ~epsilon:0.25 ~delta:0.2
      ~log2_universe:20.0 ~seed:22 ()
  in
  List.iter (Vatic_range.process t) pool;
  cycling pool (Vatic_range.process t)

(* Service hot path (EXPERIMENTS.md, "server overhead"): the per-request cost
   of the TCP service minus the socket — wire parsing alone, registry
   dispatch alone, and the full parse -> dispatch -> render step.  The gap
   between serve/registry-dispatch and E1's raw update time is the price of
   the session table + protocol layer. *)

module Protocol = Delphic_server.Protocol
module Registry = Delphic_server.Registry

let serve_request_lines () =
  let gen = Rng.create ~seed:23 in
  let boxes =
    Workload.Rectangles.uniform gen ~universe:1_000_000 ~dim:2 ~count:200
      ~max_side:50_000
  in
  "PING" :: "EST bench" :: "STATS bench"
  :: List.map
       (fun b ->
         let lo = Rectangle.lo b and hi = Rectangle.hi b in
         Printf.sprintf "ADD bench %d %d %d %d" lo.(0) hi.(0) lo.(1) hi.(1))
       boxes

let serve_registry () =
  let reg = Registry.create ~seed:25 () in
  (match
     Registry.open_session reg ~name:"bench" ~family:Protocol.Rect ~epsilon:0.2
       ~delta:0.2 ~log2_universe:40.0
   with
  | Ok () -> ()
  | Error _ -> assert false);
  reg

let serve_protocol_parse () =
  cycling (serve_request_lines ()) (fun l -> ignore (Protocol.parse_request l))

let serve_registry_dispatch () =
  let reg = serve_registry () in
  let reqs =
    List.filter_map
      (fun l -> Result.to_option (Protocol.parse_request l))
      (serve_request_lines ())
  in
  List.iter (fun r -> ignore (Registry.dispatch reg r)) reqs;
  cycling reqs (fun r -> ignore (Registry.dispatch reg r))

let serve_request_step () =
  let reg = serve_registry () in
  let lines = serve_request_lines () in
  List.iter
    (fun l ->
      match Protocol.parse_request l with
      | Ok req -> ignore (Registry.dispatch reg req)
      | Error _ -> ())
    lines;
  cycling lines (fun l ->
      let resp =
        match Protocol.parse_request l with
        | Ok req -> Registry.dispatch reg req
        | Error e -> Protocol.Error_reply e
      in
      ignore (Protocol.render_response resp))

let micro_tests () =
  Test.make_grouped ~name:"delphic"
    [
      Test.make ~name:"E1/vatic-kmp-d2-update" (Staged.stage (e1_kmp_update ()));
      Test.make ~name:"E2/aps-kmp-d2-update" (Staged.stage (e2_aps_update ()));
      Test.make ~name:"E3/vatic-kmp-d4-update" (Staged.stage (e3_kmp_update_d4 ()));
      Test.make ~name:"E4/vatic-dnf-update" (Staged.stage (e4_dnf_update ()));
      Test.make ~name:"E5/ext-vatic-range-update" (Staged.stage (e5_ext_vatic_update ()));
      Test.make ~name:"E6/vatic-coverage-update" (Staged.stage (e6_coverage_update ()));
      Test.make ~name:"E7/vatic-singleton-update" (Staged.stage (e7_vatic_singleton_update ()));
      Test.make ~name:"E7/bottom-k-add" (Staged.stage (e7_bottom_k_update ()));
      Test.make ~name:"E7/hll-add" (Staged.stage (e7_hll_update ()));
      Test.make ~name:"E9/vatic-hypervolume-update" (Staged.stage (e9_hypervolume_update ()));
      Test.make ~name:"E10/union-sample" (Staged.stage (e10_union_sample ()));
      Test.make ~name:"E11/vatic-bursty-update" (Staged.stage (e11_bursty_update ()));
      Test.make ~name:"E12/xor-sketch-dnf-update" (Staged.stage (e12_xor_sketch_update ()));
      Test.make ~name:"A/vatic-lean-capacity-update" (Staged.stage (a_series_lean_update ()));
      Test.make ~name:"serve/protocol-parse" (Staged.stage (serve_protocol_parse ()));
      Test.make ~name:"serve/registry-dispatch" (Staged.stage (serve_registry_dispatch ()));
      Test.make ~name:"serve/request-step" (Staged.stage (serve_request_step ()));
    ]

let run_bechamel tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.sort compare !rows

let print_rows ~title rows =
  print_endline title;
  print_endline (String.make (String.length title) '=');
  List.iter (fun (name, ns) -> Printf.printf "%-44s %12.1f ns/op\n" name ns) rows

let write_json ~path rows =
  let oc = open_out path in
  output_string oc "[\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (name, ns) ->
      let ns = if Float.is_nan ns then 0.0 else ns in
      let ops = if ns > 0.0 then 1e9 /. ns else 0.0 in
      Printf.fprintf oc
        "  {\"name\": %S, \"ns_per_op\": %.1f, \"ops_per_s\": %.1f}%s\n" name ns
        ops
        (if i = last then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %d benchmark rows to %s\n" (List.length rows) path

let run_micro ?json () =
  let rows = run_bechamel (micro_tests ()) in
  print_rows ~title:"Micro-benchmarks (bechamel, monotonic clock)" rows;
  Option.iter (fun path -> write_json ~path rows) json

(* Replication benchmark: the same rect stream scattered through a
   coordinator backed by 4 loopback in-process workers, at R = 1, 2, 3
   replicas per ring position. *)

module Server = Delphic_server.Server
module Coordinator = Delphic_cluster.Coordinator

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let cluster_env ~replicas ~n_workers ~seed () =
  let spool n =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "delphic-bench-spool-%d-%d-%d-%d" (Unix.getpid ())
         n_workers (seed + n) n)
  in
  let workers =
    List.init n_workers (fun n ->
        rm_rf (spool n);
        let s = Server.create ~port:0 ~spool:(spool n) ~seed:(seed + n) () in
        (s, Server.start s))
  in
  let coord =
    Coordinator.create ~replicas
      ~workers:(List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers)
      ~seed ()
  in
  (match
     Coordinator.open_session coord ~name:"bench" ~family:Protocol.Rect
       ~epsilon:0.2 ~delta:0.2 ~log2_universe:40.0
   with
  | Ok () -> ()
  | Error _ -> assert false);
  (* Tiny sets (at most 9 points each, union below the session's exact
     capacity) keep the worker-side update in the microsecond range, so the
     scatter rows measure the ingestion pipeline — framing, staging, flush,
     ack draining — rather than sketch CPU.  Heavy-update cost is E1's row
     in the micro bench. *)
  let gen = Rng.create ~seed:31 in
  let payloads =
    List.map
      (fun b ->
        let lo = Rectangle.lo b and hi = Rectangle.hi b in
        Printf.sprintf "%d %d %d %d" lo.(0) hi.(0) lo.(1) hi.(1))
      (Workload.Rectangles.uniform gen ~universe:100_000 ~dim:2 ~count:300
         ~max_side:3)
  in
  List.iter
    (fun p -> ignore (Coordinator.add coord ~name:"bench" ~payload:p))
    payloads;
  Coordinator.flush coord;
  let teardown () =
    ignore (Coordinator.close coord ~name:"bench");
    Coordinator.shutdown coord;
    List.iteri
      (fun n (s, th) ->
        Server.request_stop s;
        Thread.join th;
        rm_rf (spool n))
      workers
  in
  (coord, payloads, teardown)

let scatter coord payloads =
  cycling payloads (fun p ->
      ignore (Coordinator.add coord ~name:"bench" ~payload:p))

(* The query pattern a sharded deployment actually runs: the stream keeps
   arriving while clients poll the estimate.  Each op scatters [ingest]
   payloads (cycling the pool) and then gathers — so the row prices one
   query *at* the cluster's ingest advantage, not on an artificially idle
   pool.  The idle rows price the gather where the coordinator's fold memo
   makes the query RPC-bound. *)
let live_gather ~ingest coord payloads =
  let arr = Array.of_list payloads in
  let i = ref 0 in
  fun () ->
    for _ = 1 to ingest do
      ignore (Coordinator.add coord ~name:"bench" ~payload:arr.(!i));
      i := (!i + 1) mod Array.length arr
    done;
    ignore (Coordinator.estimate coord ~name:"bench")

let idle_gather coord () = ignore (Coordinator.estimate coord ~name:"bench")

(* Each replicated add stages the payload on R distinct ring successors, so
   the ingest rows price the replication tax directly (R=2 is the failover
   deployment's steady state; the C9 table in EXPERIMENTS.md tracks its
   overhead).  The gather rows show the query side, where replication buys
   1-of-R coverage for nearly free: the same n worker round-trips, one
   fold. *)
let run_repl ?(json = "BENCH_repl.json") () =
  let sweep = [ 1; 2; 3 ] in
  let envs =
    List.map
      (fun r -> (r, cluster_env ~replicas:r ~n_workers:4 ~seed:(640 + (7 * r)) ()))
      sweep
  in
  (* warm the worker wire caches and the coordinator fold memo so the idle
     rows price the steady-state query on a quiescent cluster *)
  List.iter
    (fun (_, (coord, _, _)) -> ignore (Coordinator.estimate coord ~name:"bench"))
    envs;
  let tests =
    List.concat_map
      (fun (r, (coord, payloads, _)) ->
        [
          Test.make
            ~name:(Printf.sprintf "scatter-add/R%d/4-workers" r)
            (Staged.stage (scatter coord payloads));
          Test.make
            ~name:(Printf.sprintf "est-idle/R%d/4-workers" r)
            (Staged.stage (fun () -> idle_gather coord ()));
          Test.make
            ~name:(Printf.sprintf "live/R%d/4-workers" r)
            (Staged.stage (live_gather ~ingest:32 coord payloads));
        ])
      envs
  in
  let rows = run_bechamel (Test.make_grouped ~name:"repl" tests) in
  List.iter (fun (_, (_, _, teardown)) -> teardown ()) envs;
  print_rows ~title:"Replication sweep (R x 4-worker loopback cluster)" rows;
  (match
     ( List.assoc_opt "repl/scatter-add/R1/4-workers" rows,
       List.assoc_opt "repl/scatter-add/R2/4-workers" rows )
   with
  | Some r1, Some r2 when r1 > 0.0 ->
    Printf.printf "R=2 ingest overhead: %.2fx over R=1\n" (r2 /. r1)
  | _ -> ());
  write_json ~path:json rows

(* Connection scaling: one event-driven server, a growing crowd of parked
   idle connections, and one hot wire-v2 connection measuring request
   round-trip latency at each crowd size.  A
   thread-per-connection server pays a stack per parked socket and dies at
   the thread limit; the readiness loop pays one registration, so the
   latency curve should stay flat through 10k idle connections. *)

module Rpc = Delphic_cluster.Rpc
module Evloop = Delphic_server.Evloop

let run_conns ?(json = "BENCH_conns.json") () =
  let target = 10_000 in
  let limit = Evloop.raise_nofile (target + 2048) in
  let spool =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "delphic-bench-conns-%d" (Unix.getpid ()))
  in
  rm_rf spool;
  let s = Server.create ~port:0 ~spool ~seed:7 () in
  let th = Server.start s in
  let port = Server.port s in
  let hot =
    match Rpc.connect ~host:"127.0.0.1" ~port ~timeout:5.0 () with
    | Ok c -> c
    | Error err -> failwith (Rpc.describe_connect_error err)
  in
  let ping c =
    match Rpc.call c Protocol.Ping with
    | Ok Protocol.Pong -> ()
    | Ok _ -> failwith "unexpected PING reply"
    | Error msg -> failwith msg
  in
  let time_pings c =
    for _ = 1 to 200 do ping c done;
    let iters = 2000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do ping c done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  (* The client ends live in forked children (killed at teardown), so the
     server process pays exactly one descriptor per idle connection — the
     figure the sweep is about.  Each child connects its share, writes one
     byte when every connect has returned, then sleeps until SIGKILL. *)
  let children = ref [] in
  let parked = ref 0 in
  let park upto =
    let delta = upto - !parked in
    if delta > 0 then begin
      let r, w = Unix.pipe () in
      (match Unix.fork () with
      | 0 ->
        Unix.close r;
        let keep =
          Array.init delta (fun _ ->
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              fd)
        in
        ignore (Unix.write w (Bytes.make 1 'k') 0 1);
        ignore keep;
        while true do
          Unix.sleep 3600
        done
      | pid ->
        Unix.close w;
        ignore (Unix.read r (Bytes.create 1) 0 1);
        Unix.close r;
        children := pid :: !children);
      parked := upto;
      (* one round-trip plus a beat: every parked socket is accepted and
         registered before the measurement starts *)
      ping hot;
      Thread.delay 0.1
    end
  in
  let levels = List.filter (fun n -> n + 64 <= limit) [ 100; 1_000; 10_000 ] in
  if levels = [] then failwith "descriptor limit too low for any sweep level";
  let rows =
    List.map
      (fun n ->
        park n;
        (Printf.sprintf "ping/v2/idle-%d" n, time_pings hot))
      levels
  in
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  Rpc.close hot;
  Server.request_stop s;
  Thread.join th;
  rm_rf spool;
  print_rows
    ~title:
      (Printf.sprintf "Idle-connection scaling (descriptor limit in force: %d)"
         limit)
    rows;
  write_json ~path:json rows

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split mode json = function
    | [] -> (mode, json)
    | "--json" :: path :: rest -> split mode (Some path) rest
    | arg :: rest when mode = None && String.length arg > 0 && arg.[0] <> '-' ->
      split (Some arg) json rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 2
  in
  let mode, json = split None None args in
  let mode = Option.value mode ~default:"all" in
  (match mode with
  | "micro" | "all" -> run_micro ?json ()
  | "conns" -> run_conns ?json ()
  | "repl" -> run_repl ?json ()
  | "macro" -> ()
  | m ->
    Printf.eprintf "unknown mode %S (expected micro, macro, conns, repl or all)\n" m;
    exit 2);
  if mode = "macro" || mode = "all" then begin
    print_newline ();
    print_endline "Experiment tables (see EXPERIMENTS.md for the paper-claim mapping)";
    Delphic_harness.Experiments.run_all ()
  end
