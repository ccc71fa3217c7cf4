(* Deterministic fault injection against the live cluster.  Each seed runs
   three real workers' worth of machinery — two worker servers, a
   coordinator, real sockets — behind a Chaos transport that drops, tears,
   corrupts and closes at seeded random.  The contract under test: the
   cluster never hangs, never desyncs its reply stream (surfacing as
   protocol errors or wrong acks), never *invents* elements (in the exact
   regime the estimate can only be <= truth), and once the faults stop it
   settles back to the exact fault-free answer.

   Corruption is injected on the READ side only in the convergence runs: a
   corrupted reply fails its frame CRC, so the coordinator drops the
   connection and replays (at-least-once, duplicate-safe).  Write-side
   faults here are the lossy-but-recoverable kinds: drop, partial, close;
   the fault mixes are the ones each seed was calibrated with. *)

module Server = Delphic_server.Server
module P = Delphic_server.Protocol
module Coordinator = Delphic_cluster.Coordinator
module Rpc = Delphic_cluster.Rpc
module Chaos = Delphic_harness.Chaos
module Rng = Delphic_util.Rng
module Bigint = Delphic_util.Bigint
module Rectangle = Delphic_sets.Rectangle
module Exact = Delphic_sets.Exact
module Workload = Delphic_stream.Workload

let spool n =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "delphic-chaos-spool-%d-%d" (Unix.getpid ()) n)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let start_worker n ~seed =
  rm_rf (spool n);
  let s = Server.create ~port:0 ~spool:(spool n) ~seed () in
  let th = Server.start s in
  (s, th)

let stop_worker (s, th) =
  Server.request_stop s;
  Thread.join th

let payload_of box =
  let lo = Rectangle.lo box and hi = Rectangle.hi box in
  let b = Buffer.create 32 in
  Array.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (Printf.sprintf "%d %d" l hi.(i)))
    lo;
  Buffer.contents b

let truth boxes = Bigint.to_float (Exact.rectangle_union boxes)

(* One seeded chaos run: ingest under faults, quiesce, assert exact
   reconvergence.  [write_cfg]/[read_cfg] are separate Chaos instances so
   the fault menus can differ per direction (see the header comment). *)
let run_seed ~seed ~write_cfg ~read_cfg ~expect_faults () =
  let wbase = 40 + (seed mod 10 * 2) in
  let workers = [ start_worker wbase ~seed:(1000 + seed); start_worker (wbase + 1) ~seed:(2000 + seed) ] in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let wchaos = Chaos.create write_cfg in
  let rchaos = Chaos.create read_cfg in
  (* chaos off during OPEN: the run tests recovery of an established
     cluster, not unlucky bootstrap *)
  Chaos.set_enabled wchaos false;
  Chaos.set_enabled rchaos false;
  let io =
    {
      Rpc.io_read = Chaos.wrap_read rchaos Unix.read;
      io_write = Chaos.wrap_write wchaos Unix.write_substring;
    }
  in
  (* tiny batch/window: many frames and many ack drains, so the fault menu
     gets plenty of socket operations to bite on *)
  let coord =
    Coordinator.create ~timeout:0.4 ~retries:2 ~backoff:0.01 ~batch:2 ~window:8
      ~io ~workers:addrs ~seed:(77 + seed) ()
  in
  let name = Printf.sprintf "chaos-%d" seed in
  let gen = Rng.create ~seed:(31 + seed) in
  let boxes =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:40 ~max_side:6
  in
  let tr = truth boxes in
  (match
     Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "seed %d: open: %s" seed (P.describe_error e));

  Chaos.set_enabled wchaos true;
  Chaos.set_enabled rchaos true;
  (* the chaotic phase: a transient "no workers available" (both shards in
     quarantine at once) is retried — at-least-once, duplicates are free *)
  let rec add_retry payload tries =
    match Coordinator.add coord ~name ~payload with
    | Ok () -> ()
    | Error _ when tries > 0 ->
      Thread.delay 0.05;
      add_retry payload (tries - 1)
    | Error e -> Alcotest.failf "seed %d: add never accepted: %s" seed (P.describe_error e)
  in
  List.iter (fun b -> add_retry (payload_of b) 40) boxes;
  (* The event-driven server coalesces every pending ack into one write, so
     a low-probability read-fault menu can see too few socket ops to fire on
     one pass.  Re-drive the stream (duplicates are free) until the menu
     bites — the assertion below is about chaos having run, not about any
     particular pass. *)
  let rounds = ref 0 in
  while
    expect_faults
    && Chaos.injected wchaos + Chaos.injected rchaos = 0
    && !rounds < 10
  do
    incr rounds;
    List.iter (fun b -> add_retry (payload_of b) 40) boxes
  done;
  Chaos.set_enabled wchaos false;
  Chaos.set_enabled rchaos false;
  let injected = Chaos.injected wchaos + Chaos.injected rchaos in
  if expect_faults then
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: chaos actually ran (%d faults)" seed injected)
      true (injected > 0)
  else Alcotest.(check int) (Printf.sprintf "seed %d: transparent" seed) 0 injected;

  (* settle: with the faults off the cluster must reconverge to the exact
     union.  Chaos can have torn payloads out of acknowledged frames (the
     worker rejects the garble, the replay re-ships the real payload), so
     convergence may need the lost payloads re-driven — duplicates cost
     nothing, silence would mean a hang, an overshoot means corruption got
     past the parse fences. *)
  let rec settle attempt =
    if attempt > 30 then
      Alcotest.failf "seed %d: cluster failed to reconverge on the exact union" seed
    else begin
      Coordinator.flush coord;
      match Coordinator.estimate coord ~name with
      | Ok (est, false, _) when est = tr -> ()
      | result ->
        (match result with
        | Ok (est, _, _) when est > tr +. 0.5 ->
          Alcotest.failf
            "seed %d: estimate %.0f exceeds exact truth %.0f — an invented element"
            seed est tr
        | _ -> ());
        List.iter
          (fun b -> ignore (Coordinator.add coord ~name ~payload:(payload_of b)))
          boxes;
        Thread.delay 0.05;
        settle (attempt + 1)
    end
  in
  settle 0;
  (match Coordinator.stats coord ~name with
  | Ok st ->
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: items cover the stream (%d >= %d)" seed st.P.items
         (List.length boxes))
      true
      (st.P.items >= List.length boxes)
  | Error e -> Alcotest.failf "seed %d: stats: %s" seed (P.describe_error e));
  ignore (Coordinator.close coord ~name);
  Coordinator.shutdown coord;
  List.iter stop_worker workers;
  rm_rf (spool wbase);
  rm_rf (spool (wbase + 1))

(* The CI chaos suite: 10 seeds across three fault mixes. *)
let mixed seed =
  ( Chaos.config ~delay_p:0.1 ~max_delay:0.002 ~drop_p:0.04 ~partial_p:0.03
      ~close_p:0.03 ~seed (),
    Chaos.config ~delay_p:0.1 ~max_delay:0.002 ~close_p:0.02 ~corrupt_p:0.05
      ~seed:(seed lxor 0x55) () )

let drop_heavy seed =
  ( Chaos.config ~drop_p:0.15 ~seed (),
    Chaos.config ~seed:(seed lxor 0x55) () )

let corrupt_heavy seed =
  ( Chaos.config ~partial_p:0.04 ~seed (),
    Chaos.config ~close_p:0.03 ~corrupt_p:0.12 ~seed:(seed lxor 0x55) () )

(* The chaos [io] hooks sit below the binary framing, so a flipped byte
   lands inside a CRC-protected frame and must surface as a typed reject
   (the worker drops the connection, the coordinator quarantines and
   replays) — never as a desynced stream. *)
let test_seed mix seed () =
  let write_cfg, read_cfg = mix seed in
  run_seed ~seed ~write_cfg ~read_cfg ~expect_faults:true ()

let test_transparent () =
  (* all probabilities zero: the wrappers must be invisible *)
  run_seed ~seed:0
    ~write_cfg:(Chaos.config ~seed:1 ())
    ~read_cfg:(Chaos.config ~seed:2 ())
    ~expect_faults:false ()

(* --- unit-level: the wrappers themselves, no sockets --- *)

let test_config_validates () =
  List.iter
    (fun mk ->
      match mk () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "out-of-range config must be rejected")
    [
      (fun () -> Chaos.config ~drop_p:1.5 ~seed:1 ());
      (fun () -> Chaos.config ~corrupt_p:(-0.1) ~seed:1 ());
      (fun () -> Chaos.config ~max_delay:(-1.0) ~seed:1 ());
    ]

(* Same seed, same call sequence => byte-identical fault transcript. *)
let write_transcript ~seed ~enabled =
  let c = Chaos.create (Chaos.config ~drop_p:0.3 ~corrupt_p:0.2 ~seed ()) in
  Chaos.set_enabled c enabled;
  let log = Buffer.create 256 in
  let base _fd s ofs len =
    Buffer.add_string log (String.sub s ofs len);
    Buffer.add_char log '|';
    len
  in
  for i = 0 to 49 do
    let n = Chaos.wrap_write c base Unix.stdin (Printf.sprintf "frame-%02d" i) 0 8 in
    ignore n
  done;
  (Buffer.contents log, Chaos.injected c)

let test_write_determinism () =
  let t1, n1 = write_transcript ~seed:424242 ~enabled:true in
  let t2, n2 = write_transcript ~seed:424242 ~enabled:true in
  Alcotest.(check string) "same seed, same transcript" t1 t2;
  Alcotest.(check int) "same seed, same fault count" n1 n2;
  Alcotest.(check bool) "faults injected" true (n1 > 0);
  Alcotest.(check bool) "drops removed frames from the transcript" true
    (String.length t1 < 50 * 9);
  let t3, _ = write_transcript ~seed:171717 ~enabled:true in
  Alcotest.(check bool) "different seed, different transcript" true (t1 <> t3);
  let t4, n4 = write_transcript ~seed:424242 ~enabled:false in
  Alcotest.(check int) "disabled injects nothing" 0 n4;
  Alcotest.(check bool) "disabled is transparent" true
    (String.length t4 = 50 * 9)

let test_partial_write () =
  let c = Chaos.create (Chaos.config ~partial_p:1.0 ~seed:7 ()) in
  let wrote = ref (-1) in
  let base _fd _s _ofs len =
    wrote := len;
    len
  in
  (match Chaos.wrap_write c base Unix.stdin "0123456789" 0 10 with
  | _ -> Alcotest.fail "partial write must raise EPIPE"
  | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ());
  Alcotest.(check bool)
    (Printf.sprintf "a strict prefix shipped (%d of 10)" !wrote)
    true
    (!wrote >= 1 && !wrote < 10)

let test_drop_write () =
  let c = Chaos.create (Chaos.config ~drop_p:1.0 ~seed:8 ()) in
  let called = ref false in
  let base _fd _s _ofs len =
    called := true;
    len
  in
  Alcotest.(check int) "drop claims the full length" 6
    (Chaos.wrap_write c base Unix.stdin "abcdef" 0 6);
  Alcotest.(check bool) "drop ships nothing" false !called

let test_corrupt_read () =
  let c = Chaos.create (Chaos.config ~corrupt_p:1.0 ~seed:9 ()) in
  let payload = "OKB 12 hello" in
  let base _fd buf ofs _len =
    Bytes.blit_string payload 0 buf ofs (String.length payload);
    String.length payload
  in
  let buf = Bytes.make 32 '#' in
  let k = Chaos.wrap_read c base Unix.stdin buf 4 20 in
  Alcotest.(check int) "length preserved" (String.length payload) k;
  let got = Bytes.sub_string buf 4 k in
  let diffs = ref [] in
  String.iteri
    (fun i ch -> if ch <> payload.[i] then diffs := (i, ch) :: !diffs)
    got;
  (match !diffs with
  | [ (i, ch) ] ->
    Alcotest.(check int) "single bit-5 flip"
      (Char.code payload.[i] lxor 0x20)
      (Char.code ch)
  | _ -> Alcotest.failf "expected exactly one corrupted byte, got %d" (List.length !diffs));
  Alcotest.(check string) "bytes outside the read untouched" "####"
    (Bytes.sub_string buf 0 4)

(* A death mid-gather whose re-route lands on the worker the gather reads
   next.  R=2 over two workers: session [s] is homed at A, session [t] at
   B, and each worker holds a copy of both.  A partition of A during an
   EST times out A's FETCH; the window A still owed — [s]'s frames and a
   copy of [t]'s — is re-routed onto B, and it is big enough to push B past
   the ack window, so B is drained mid-gather with [t]'s ack owed ahead of
   the re-routed frames.  B's FETCH then queues behind what is left, and
   its reply must still be read in order: the answer is fresh and exact, B
   stays up, and once A is back and replaced every acked set is
   counted. *)
let test_reroute_onto_pending_fetch () =
  let s = Test_cluster.name_homed_at 0 2 and t = Test_cluster.name_homed_at 1 2 in
  let workers = List.init 2 (fun n -> start_worker (70 + n) ~seed:(3000 + n)) in
  let port_a = Server.port (fst (List.hd workers)) in
  let chaos = Chaos.create (Chaos.config ~seed:71 ()) in
  let io =
    {
      Rpc.io_read = Chaos.wrap_read chaos Unix.read;
      io_write = Chaos.wrap_write chaos Unix.write_substring;
    }
  in
  (* batch 2, window 8: neither worker is drained while it owes 7 units,
     and the first re-routed frame pushes B past the window *)
  let coord =
    Coordinator.create ~io ~replicas:2 ~timeout:0.3 ~backoff:0.01 ~batch:2 ~window:8
      ~workers:(List.map (fun (w, _) -> ("127.0.0.1", Server.port w)) workers)
      ~seed:72 ()
  in
  let ok what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" what (P.render_response (P.Error_reply e))
  in
  let gen = Rng.create ~seed:73 in
  let band count = Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count ~max_side:6 in
  let ingest name boxes =
    let accepted, _ =
      ok "ADDB" (Coordinator.add_batch coord ~name ~payloads:(List.map payload_of boxes))
    in
    Alcotest.(check int) "every payload routed" (List.length boxes) accepted
  in
  let est what name ~degraded boxes =
    let v, d, _ = ok what (Coordinator.estimate coord ~name) in
    Alcotest.(check bool) (what ^ ": degraded") degraded d;
    Alcotest.(check (float 0.0)) (what ^ ": exact") (truth boxes) v
  in
  let back_up () =
    Chaos.heal chaos;
    Thread.delay 0.1 (* past A's quarantine *)
  in
  List.iter
    (fun name ->
      ok "OPEN"
        (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
           ~log2_universe:17.0))
    [ s; t ];
  let set1 = band 10 and set2 = band 5 and set3 = band 7 in
  let tset = band 4 in
  ingest s set1;
  est "clean" s ~degraded:false set1;
  (* each worker owes [t]'s 2 units and set2's 5 when A goes dark *)
  ingest t (List.filteri (fun i _ -> i < 2) tset);
  ingest s set2;
  Chaos.partition chaos [ port_a ];
  est "re-route onto B mid-gather" s ~degraded:false (set1 @ set2);
  Alcotest.(check int) "B survives the drain" 1 (Coordinator.live_workers coord);
  back_up ();
  ingest s set3;
  ingest t (List.filteri (fun i _ -> i >= 2) tset);
  est "every acked set counted" s ~degraded:false (set1 @ set2 @ set3);
  est "the other session" t ~degraded:false tset;
  Alcotest.(check int) "both workers up" 2 (Coordinator.live_workers coord);
  Coordinator.shutdown coord;
  List.iter stop_worker workers;
  List.iteri (fun n _ -> rm_rf (spool (70 + n))) workers

let suite =
  [
    Alcotest.test_case "config validates" `Quick test_config_validates;
    Alcotest.test_case "a death mid-gather re-routes onto a pending FETCH" `Quick
      test_reroute_onto_pending_fetch;
    Alcotest.test_case "seeded write faults are deterministic" `Quick
      test_write_determinism;
    Alcotest.test_case "partial write tears a prefix" `Quick test_partial_write;
    Alcotest.test_case "dropped write ships nothing" `Quick test_drop_write;
    Alcotest.test_case "read corruption flips one byte" `Quick test_corrupt_read;
    Alcotest.test_case "zero-probability chaos is transparent" `Quick test_transparent;
    Alcotest.test_case "seed 11: mixed faults reconverge exactly" `Quick
      (test_seed mixed 11);
    Alcotest.test_case "seed 23: mixed faults reconverge exactly" `Quick
      (test_seed mixed 23);
    Alcotest.test_case "seed 37: mixed faults reconverge exactly" `Quick
      (test_seed mixed 37);
    Alcotest.test_case "seed 41: mixed faults reconverge exactly" `Quick
      (test_seed mixed 41);
    Alcotest.test_case "seed 53: drop-heavy reconverges exactly" `Quick
      (test_seed drop_heavy 53);
    Alcotest.test_case "seed 67: drop-heavy reconverges exactly" `Quick
      (test_seed drop_heavy 67);
    Alcotest.test_case "seed 79: corrupt-heavy reconverges exactly" `Quick
      (test_seed corrupt_heavy 79);
    Alcotest.test_case "seed 97: corrupt-heavy reconverges exactly" `Quick
      (test_seed corrupt_heavy 97);
    Alcotest.test_case "seed 13: v2 mixed faults reconverge exactly" `Quick
      (test_seed mixed 13);
    Alcotest.test_case "seed 29: v2 corrupt-heavy surfaces as CRC rejects" `Quick
      (test_seed corrupt_heavy 29);
  ]
