(* perfbench: deploy the cluster, drive one workload, score every answer,
   print the metrics.  Normally started through perfbench/run.py, which
   builds the checkout first:

     python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

   --trace 0 prints the end-to-end metrics of one measured window and, on
   ingest, a capacity phase after it; --trace 1 repeats the workload
   untraced, then traced, probes the processes and replays the recorded
   traffic through each layer in-process, and prints the per-layer
   metrics. *)

open Perfbench

let workload = ref ""

let seed = ref 1

let seconds = ref 10.0

let trace = ref 0

let commit = ref "unknown"

let setups = 3

let warm = 1.0

(* The capacity phase after the measured window: a third of its length, at
   least 3 s, of which the first [warm] second is not counted. *)
let capacity_seconds () = Float.max 3.0 (!seconds /. 3.0)

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME ingest | query");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measured seconds per window");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--commit", Arg.Set_string commit, "ID source revision to report");
  ]

let line = Report.line

let host_facts (spec : Spec.t) sut_lines wal_fs =
  let kernel = try String.trim (Procfs.read_file "/proc/sys/kernel/osrelease") with Sys_error _ -> "unknown" in
  line "host: nproc=%d ocaml=%s kernel=%s commit=%s seed=%d" (Domain.recommended_domain_count ())
    Sys.ocaml_version kernel !commit !seed;
  line "workload: %s (%s regime, %d sessions, eps=%g delta=%g log2u=%g, rect)" spec.Spec.name
    (if spec.Spec.exact then "exact" else "sketch")
    (Array.length spec.Spec.sessions) Spec.epsilon Spec.delta Spec.log2_universe;
  List.iter (fun l -> line "sut: %s" l) sut_lines;
  line "sut: coord flags at CLI defaults: --replicas 2 --batch 64 --proto v2 --shard hash, default --domains and --gather-domains";
  line "sut: workers at CLI defaults except --wal-group 1: %s" Sut.wal_group_reason;
  line "sut: WAL filesystem %s; fsync interval:0.2 and --checkpoint-every 512 (defaults)" wal_fs

let run_dir () = Filename.concat ".perfbench" (string_of_int (Unix.getpid ()))

(* Spawn the cluster and load it; the elapsed time is the set-up time. *)
let setup spec =
  let t0 = Unix.gettimeofday () in
  let sut = Sut.start ~dir:(run_dir ()) in
  match
    let gen = Loadgen.create spec ~port:sut.Sut.coord.Sut.port in
    Loadgen.setup gen;
    gen
  with
  | gen -> (sut, gen, Unix.gettimeofday () -. t0)
  | exception e ->
    Sut.stop sut;
    raise e

let find name ms = List.find (fun m -> m.Report.name = name) ms

(* The end-to-end metrics of the machine-read result (BENCHMARK.json):
   those that are never 0 and hold steady across seeds on both workloads.
   The rest are printed above it.  error_share, accuracy_fail_share and
   est_rel_err_p50 are exactly 0 on a healthy exact-regime run, so the
   result carries [failed] and est_err_factor_p50 in their place.  The p90s
   rest on too few samples to hold steady; the frame percentiles and
   est_idle_p50_ms flip between two modes from run to run on one workload
   or the other, and so does ingest_sets_per_s, which only ingest's
   capacity phase measures (see perfbench/README.md). *)
let reported = [ "setup_s"; "est_p50_ms"; "win_p50_ms"; "expr_p50_ms"; "est_err_factor_p50"; "rss_mb" ]

let end_to_end spec =
  let times = ref [] in
  let rec go k =
    let sut, gen, dt = setup spec in
    times := dt :: !times;
    if k < setups then begin
      Sut.stop sut;
      go (k + 1)
    end
    else (sut, gen)
  in
  let sut, gen = go 1 in
  let phase, rss, exited, cap, lines, wal_fs =
    Fun.protect
      ~finally:(fun () -> Sut.stop sut)
      (fun () ->
        let wal_fs = Procfs.fs_type_of_dir (Sut.wal_dir sut) in
        let phase = Loadgen.run_phase gen ~warm ~seconds:!seconds in
        (* peak RSS of the measured window, before the capacity phase *)
        let rss = Sut.rss sut in
        let exited = Sut.exited_procs sut in
        let cap =
          if not spec.Spec.capacity then None
          else begin
            let t0 = Unix.gettimeofday () in
            let frames = Loadgen.capacity gen ~seconds:(capacity_seconds ()) in
            Some (frames, t0)
          end
        in
        (phase, rss, exited @ Sut.exited_procs sut, cap, Sut.describe sut, wal_fs))
  in
  host_facts spec lines wal_fs;
  let coord_rss, worker_rss = rss in
  let rss_mb = List.fold_left ( +. ) coord_rss worker_rss in
  let cap_metrics, cap_attempted, cap_failed =
    match cap with
    | None -> ([], 0, 0)
    | Some (frames, t0) ->
      let rate, attempted, failed = Score.capacity frames ~from:(t0 +. warm) ~until:(t0 +. capacity_seconds ()) in
      ([ Report.metric ~calls:attempted "ingest_sets_per_s" rate "1/s" ], attempted, failed)
  in
  let r = Score.score spec ~frames:(List.rev gen.Loadgen.frames) phase in
  let r =
    Score.with_problems
      { r with attempted = r.attempted + cap_attempted; failed = r.failed + cap_failed }
      (exited @ if Float.is_finite rss_mb then [] else [ "a process's peak RSS could not be read" ])
  in
  let setup_s = Pct.median !times in
  let all =
    (Report.metric ~calls:setups "setup_s" setup_s "s" :: cap_metrics)
    @ List.filter_map
         (fun name -> List.find_opt (fun m -> m.Report.name = name) r.Score.metrics)
         [
           "ingest_frame_p50_ms"; "ingest_frame_p99_ms"; "est_p50_ms"; "est_p90_ms";
           "est_idle_p50_ms"; "win_p50_ms"; "win_p90_ms"; "expr_p50_ms"; "expr_p90_ms"; "error_share";
           "accuracy_fail_share"; "est_rel_err_p50"; "est_err_factor_p50";
         ]
    @ [ Report.metric "rss_mb" rss_mb "MiB" ]
  in
  Report.print_table "end-to-end metrics" all;
  line "setup times (s): %s" (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times));
  Option.iter
    (fun (frames, t0) ->
      line "capacity phase, sets acknowledged per half second: %s"
        (String.concat " " (List.map string_of_int (Score.half_seconds frames ~from:t0))))
    cap;
  List.iter (fun p -> line "problem: %s" p) r.Score.problems;
  List.iter (fun p -> line "note: %s" p) r.Score.notes;
  (r, List.map (fun name -> find name all) reported)

let score_metric (r : Score.result) name = (find name r.metrics).Report.value

let sum = List.fold_left ( + ) 0

(* Untraced window, STATS, traced window, STATS, PING and SNAPSHOT probes;
   then, with the cluster gone, the in-process replay. *)
let per_layer spec =
  let sut, gen, _ = setup spec in
  let untraced, traced, exited, s0, s1, coord_pings, worker_pings, fetches, rss, lines, wal_fs =
    Fun.protect
      ~finally:(fun () -> Sut.stop sut)
      (fun () ->
        let wal_fs = Procfs.fs_type_of_dir (Sut.wal_dir sut) in
        let untraced = Loadgen.run_phase gen ~warm ~seconds:!seconds in
        let s0 = Probe.stats sut spec in
        let traced = Loadgen.run_phase gen ~warm ~seconds:!seconds in
        let exited = Sut.exited_procs sut in
        let s1 = Probe.stats sut spec in
        let coord_pings = Probe.ping_us sut.coord.port ~n:200 in
        let worker_pings = List.concat_map (fun (w : Sut.proc) -> Probe.ping_us w.port ~n:200) sut.workers in
        let fetches = Probe.snapshots gen sut ~reps:5 in
        (untraced, traced, exited, s0, s1, coord_pings, worker_pings, fetches, Sut.rss sut, Sut.describe sut, wal_fs))
  in
  host_facts spec lines wal_fs;
  let a_name = spec.sessions.(Spec.a).name in
  let coord_a (s : Probe.stats) = List.assoc a_name s.coord.sessions in
  let c0 = coord_a s0 and c1 = coord_a s1 in
  line "coordinator STATS %s over the traced window: items %d -> %d, entries %d -> %d, exact %b -> %b, merges %d -> %d"
    a_name c0.items c1.items c0.entries c1.entries c0.exact c1.exact c0.merges c1.merges;
  let frames = List.rev gen.frames in
  let ru = Score.score spec ~frames untraced in
  let rt = Score.with_problems (Score.score spec ~frames traced) exited in
  let cutoff = Loadgen.logical_now gen -. spec.win_seconds in
  let replayed =
    Replay.run spec traced.sent ~tokens:fetches.tokens ~cutoff ~dir:(run_dir () ^ "-replay")
  in
  let value name = (find name replayed).Report.value in
  let coord_rss, worker_rss = rss in
  let srv n = n.Probe.srv in
  let workers0 = List.map srv s0.workers and workers1 = List.map srv s1.workers in
  let groups =
    sum (List.map (fun (s : Delphic_server.Protocol.server_stats) -> s.wal_groups) workers1)
    - sum (List.map (fun (s : Delphic_server.Protocol.server_stats) -> s.wal_groups) workers0)
  in
  let records_per_group =
    if groups = 0 then 1.0
    else
      Pct.median (List.map (fun (s : Delphic_server.Protocol.server_stats) -> float_of_int s.wal_last_group) workers1)
  in
  let a_entries =
    List.map (fun (n : Probe.node) -> (List.assoc a_name n.sessions).Delphic_server.Protocol.entries) s1.workers
  in
  let ratio name =
    let t = score_metric rt name and u = score_metric ru name in
    if Float.is_finite t && Float.is_finite u && u > 0.0 then Some (t /. u) else None
  in
  (* The traced window's p50s over the untraced one's.  The generator keeps
     the same spans in both, so this is window-to-window drift while nothing
     inside the processes is traced. *)
  let overhead =
    Pct.median
      (List.filter_map ratio [ "ingest_frame_p50_ms"; "est_p50_ms"; "est_idle_p50_ms"; "win_p50_ms"; "expr_p50_ms" ])
  in
  (* Replayed layer time per operation over end-to-end time per operation,
     weighted by the traced window's traffic: an ingest frame costs its
     codec, scatter, registry write and journal append, against its send to
     ack; a live EST costs a memo-missing fetch plus decode, fold and
     estimate, against its due time to reply. *)
  let coverage =
    let in_window t = t >= traced.measure_from && t < traced.until in
    let acked = List.filter (fun (f : Loadgen.frame) -> in_window f.acked) traced.sent in
    let n_frames = float_of_int (List.length acked) in
    let sets_per_frame = float_of_int spec.frame_sets in
    let frame_s =
      (value "wire.encode_us_per_frame" +. value "wire.decode_us_per_frame"
      +. ((value "coordinator.add_batch_us_per_set" +. value "registry.add_batch_us_per_set") *. sets_per_frame)
      +. value "wal.append_us_per_record")
      /. 1e6
    in
    let ests =
      List.filter (fun (q : Loadgen.query) -> q.kind = Spec.Est_live && in_window q.due) traced.queries
    in
    let n_est = float_of_int (List.length ests) in
    let est_s =
      (Pct.median fetches.miss_ms +. value "gather.decode_ms" +. value "gather.fold_ms" +. value "gather.estimate_ms")
      /. 1e3
    in
    let frame_e2e = List.fold_left (fun s (f : Loadgen.frame) -> s +. (f.acked -. f.sent)) 0.0 acked in
    let est_e2e = List.fold_left (fun s (q : Loadgen.query) -> s +. (q.replied -. q.due)) 0.0 ests in
    ((n_frames *. frame_s) +. (n_est *. est_s)) /. (frame_e2e +. est_e2e)
  in
  let m = Report.metric in
  let n_pings l = Some (List.length l) in
  let layers =
    [
      find "loadgen.late_p99_ms" rt.metrics;
      m ?calls:(n_pings coord_pings) "frontend.ping_p50_us" (Pct.median coord_pings) "us";
      m ?calls:(n_pings worker_pings) "worker.ping_p50_us" (Pct.median worker_pings) "us";
      find "coordinator.add_batch_us_per_set" replayed;
      find "coordinator.flush_ms" replayed;
      find "wire.encode_us_per_frame" replayed;
      find "wire.decode_us_per_frame" replayed;
      find "wire.bytes_per_set" replayed;
      find "registry.add_batch_us_per_set" replayed;
      find "registry.add_log_us_per_set" replayed;
      find "wal.append_us_per_record" replayed;
      find "wal.checkpoint_ms" replayed;
      m ~calls:groups "wal.records_per_group" records_per_group "count";
      find "estimator.update_exact_us_per_set" replayed;
      find "estimator.update_sketch_us_per_set" replayed;
      m ~calls:(List.length a_entries) "estimator.sketch_entries"
        (float_of_int (List.fold_left max 0 a_entries)) "count";
    ]
    @ List.map (fun eps -> find (Printf.sprintf "estimator.update_sketch_us_per_set.eps%g" eps) replayed) Replay.sweep
    @ [
        find "registry.materialise_ms_per_1k_sets" replayed;
        m ?calls:(n_pings fetches.miss_ms) "registry.fetch_miss_ms" (Pct.median fetches.miss_ms) "ms";
        m ?calls:(n_pings fetches.hit_ms) "registry.fetch_hit_ms" (Pct.median fetches.hit_ms) "ms";
        m "snapshot.token_bytes"
          (Pct.median (List.map (fun t -> float_of_int (String.length t)) (List.assoc a_name fetches.tokens)))
          "B";
        find "gather.decode_ms" replayed;
        find "gather.fold_ms" replayed;
        find "gather.estimate_ms" replayed;
        find "gather.window_ms" replayed;
        find "expr.eval_ms" replayed;
        find "expr.lowsupport_share" rt.metrics;
        find "expr.rel_err_p50" rt.metrics;
        m "server.dispatched" (float_of_int (sum (srv s1.coord).dispatched - sum (srv s0.coord).dispatched)) "count";
        m "server.shed" (float_of_int (sum (List.map (fun s -> s.Delphic_server.Protocol.shed) (srv s1.coord :: workers1)))) "count";
        m "coordinator.shard_fresh_min"
          (float_of_int (List.fold_left min max_int (srv s1.coord).shard_fresh |> fun v -> if v = max_int then 0 else v))
          "count";
        m "coordinator.rss_mb" coord_rss "MiB";
        m "worker.rss_mb" (List.fold_left Float.max 0.0 worker_rss) "MiB";
        m "trace.overhead" overhead "ratio";
        m "trace.coverage" coverage "ratio";
      ]
  in
  Report.print_table "per-layer metrics (traced window + probes + in-process replay)" layers;
  let sweep_us eps = value (Printf.sprintf "estimator.update_sketch_us_per_set.eps%g" eps) in
  List.iter
    (fun eps ->
      line "E3 sweep: eps=%g  %.3f us/set  measured ratio to eps=0.3: %.3f  1/eps^2 ratio: %.3f" eps (sweep_us eps)
        (sweep_us eps /. sweep_us 0.3)
        (0.3 *. 0.3 /. (eps *. eps)))
    Replay.sweep;
  line "untraced vs traced p50s (ms): %s"
    (String.concat " "
       (List.map
          (fun n -> Printf.sprintf "%s=%.3f/%.3f" n (score_metric ru n) (score_metric rt n))
          [ "ingest_frame_p50_ms"; "est_p50_ms"; "est_idle_p50_ms"; "win_p50_ms"; "expr_p50_ms" ]));
  List.iter (fun p -> line "problem (traced window): %s" p) rt.problems;
  List.iter (fun p -> line "note (traced window): %s" p) rt.notes;
  (rt, layers)

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  Logs.set_level (Some Logs.Error);
  if not (Sys.file_exists Sut.exe) then begin
    prerr_endline ("perfbench: " ^ Sut.exe ^ " not found; run from a built checkout");
    exit 2
  end;
  let spec =
    try Spec.make !workload ~seed:!seed with Invalid_argument msg -> prerr_endline ("perfbench: " ^ msg); exit 2
  in
  line "perfbench: workload=%s seed=%d seconds=%g trace=%d" spec.Spec.name !seed !seconds !trace;
  let r, reported =
    if !trace = 0 then end_to_end spec else per_layer spec
  in
  if r.Score.attempted = 0 then begin
    prerr_endline "perfbench: no request was attempted";
    exit 1
  end;
  (* JSON has no NaN: a reported metric without a value fails the run. *)
  List.iter
    (fun (m : Report.metric) ->
      if not (Float.is_finite m.value) then begin
        prerr_endline ("perfbench: " ^ m.name ^ " has no value");
        exit 1
      end)
    reported;
  print_endline
    (Report.result_json ~correct:r.Score.correct ~attempted:r.Score.attempted ~failed:r.Score.failed reported)
