(* Replication and warm-standby failover, end to end.  The contract under
   test is the robustness tentpole: with R = 2 replicas per ring position
   and one standby coordinator, the cluster survives the loss of ANY single
   process — worker or coordinator — with no degradation: EST never says
   DEGRADED, and in the exact regime the count matches the fault-free run
   bit for bit.  A deposed primary's late writes die at the workers' epoch
   fence.

   Three fault shapes, each over the chaos suite's 8 seeds (the kill
   schedule — which process, after how many ingest steps — is a seeded
   draw, so every run replays bit-identically):

   - kill a worker mid-ingest (its replica covers the ring position);
   - kill the active coordinator mid-gather (the standby promotes itself
     from worker-sourced state and fences the corpse);
   - partition a worker away, then heal (the black-holed shard is covered
     while unreachable and rejoins afterwards).

   Plus one REAL kill -9: the primary coordinator runs in its own process
   (re-exec'd, same pattern as the WAL kill -9 test), a standby in the
   parent polls its LEASE, SIGKILL lands mid-service, and the standby's
   promoted answers must be exact. *)

module Server = Delphic_server.Server
module P = Delphic_server.Protocol
module Coordinator = Delphic_cluster.Coordinator
module Frontend = Delphic_cluster.Frontend
module Failover = Delphic_cluster.Failover
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
    (Printf.sprintf "delphic-failover-spool-%d-%d" (Unix.getpid ()) n)

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

(* Start worker [n] again on [port] from whatever its spool holds, once the
   stopped one has let the port go. *)
let restart_worker n ~port ~seed =
  let rec create tries =
    match Server.create ~port ~spool:(spool n) ~seed () with
    | s -> s
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 0 ->
      Thread.delay 0.05;
      create (tries - 1)
  in
  let s = create 40 in
  (s, Server.start s)

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

let ok = function
  | Ok v -> v
  | Error e ->
    Alcotest.failf "unexpected error: %s" (P.render_response (P.Error_reply e))

let wait_for ~timeout msg pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match pred () with
    | Some v -> v
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.fail msg
      else begin
        Thread.delay 0.02;
        go ()
      end
  in
  go ()

(* A transient refusal (the session's waiting FIFO full while every replica
   is quarantined) is retried: at-least-once, duplicates are free. *)
let add_retry coord ~name payload =
  let rec go tries =
    match Coordinator.add coord ~name ~payload with
    | Ok () -> ()
    | Error _ when tries > 0 ->
      Thread.delay 0.05;
      go (tries - 1)
    | Error e -> Alcotest.failf "add never accepted: %s" (P.describe_error e)
  in
  go 40

let open_rect coord ~name =
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0)

(* Drive flushes until the replicated gather answers the exact union.  The
   replication contract sharpens the chaos suite's settle loop: every
   intermediate answer must already be non-degraded — a single-process
   fault can never starve a ring position of fresh replicas at R = 2. *)
let settle_exact ~ctx coord ~name ~truth:tr =
  let rec go attempt =
    if attempt > 40 then
      Alcotest.failf "%s: never reconverged on the exact union" ctx
    else begin
      Coordinator.flush coord;
      match Coordinator.estimate coord ~name with
      | Ok (est, degraded, stale) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: EST never DEGRADED" ctx)
          false degraded;
        Alcotest.(check (list int))
          (Printf.sprintf "%s: no stale ring position" ctx)
          [] stale;
        if est > tr +. 0.5 then
          Alcotest.failf "%s: estimate %.0f exceeds exact truth %.0f" ctx est tr
        else if est = tr then ()
        else begin
          Thread.delay 0.05;
          go (attempt + 1)
        end
      | Error _ ->
        Thread.delay 0.05;
        go (attempt + 1)
    end
  in
  go 0

let boxes_for seed count =
  Workload.Rectangles.uniform
    (Rng.create ~seed:(31 + seed))
    ~universe:300 ~dim:2 ~count ~max_side:6

(* --- the typed dial timeout ------------------------------------------- *)

(* A loopback listener that never accepts: the kernel completes up to
   [backlog] handshakes on its behalf, and nothing is ever answered. *)
let raw_listener ?(port = 0) ~backlog () =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen srv backlog;
  match Unix.getsockname srv with
  | Unix.ADDR_INET (_, p) -> (srv, p)
  | _ -> Alcotest.fail "loopback listener has no port"

(* A listener whose accept queue is already full drops further SYNs, so a
   dial into it hangs exactly like a black-holed host: connect() neither
   completes nor refuses.  The bounded dial must surface the typed
   [Dial_timeout] near its budget instead of blocking a gather. *)
let test_dial_timeout () =
  let srv, port = raw_listener ~backlog:0 () in
  let fillers =
    List.init 4 (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_nonblock fd;
        (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
         with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> ());
        fd)
  in
  Thread.delay 0.05;
  let t0 = Unix.gettimeofday () in
  (match Rpc.connect ~dial_timeout:0.3 ~host:"127.0.0.1" ~port ~timeout:1.0 () with
  | Error (Rpc.Dial_timeout budget) ->
    let dt = Unix.gettimeofday () -. t0 in
    Alcotest.(check (float 0.001)) "the budget rides the error" 0.3 budget;
    Alcotest.(check bool)
      (Printf.sprintf "dial bounded by its budget (%.2fs)" dt)
      true
      (dt >= 0.25 && dt < 1.5)
  | Error (Rpc.Dial_failed msg) ->
    Alcotest.failf "expected a dial timeout, got a dial failure: %s" msg
  | Ok c ->
    Rpc.close c;
    Alcotest.fail "a dial into a full accept queue must not complete");
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fillers;
  Unix.close srv

(* Why the lease monitor is a thread of its own: a primary that accepts the
   connection but never answers holds each LEASE round trip for the whole
   [timeout].  On the front door's loop that would stall every client; on
   the monitor's thread an EST on the standby answers at once while the
   monitor waits. *)
let test_monitor_leaves_front_door_free () =
  let srv, primary_port = raw_listener ~backlog:8 () in
  let w = start_worker 92 ~seed:9200 in
  let addrs = [ ("127.0.0.1", Server.port (fst w)) ] in
  let primary = Coordinator.create ~timeout:1.0 ~workers:addrs ~seed:920 () in
  let boxes = boxes_for 92 20 in
  open_rect primary ~name:"m";
  List.iter (fun b -> ok (Coordinator.add primary ~name:"m" ~payload:(payload_of b))) boxes;
  Coordinator.flush primary;
  let standby = Coordinator.create ~timeout:1.0 ~workers:addrs ~seed:921 () in
  let fo =
    Failover.create ~interval:0.05 ~timeout:1.0 ~primary:("127.0.0.1", primary_port)
      ~coord:standby ()
  in
  ignore (Coordinator.sync_sessions standby);
  let fe = Frontend.create ~port:0 ~dispatch:(Coordinator.dispatch standby) () in
  let fe_th = Frontend.start fe in
  Failover.start fo;
  (* the monitor has dialed once its connection sits in the accept queue;
     give its LEASE a moment to leave, then ask *)
  wait_for ~timeout:5.0 "the monitor never dialed the primary" (fun () ->
      match Unix.select [ srv ] [] [] 0.0 with [], _, _ -> None | _ -> Some ());
  Thread.delay 0.1;
  let conn =
    match Rpc.connect ~host:"127.0.0.1" ~port:(Frontend.port fe) ~timeout:2.0 () with
    | Ok c -> c
    | Error e -> Alcotest.failf "dial the standby: %s" (Rpc.describe_connect_error e)
  in
  let t0 = Unix.gettimeofday () in
  let reply = Rpc.call conn (P.Est { session = "m" }) in
  let dt = Unix.gettimeofday () -. t0 in
  (match reply with
  | Ok (P.Estimate { value; degraded = false; _ }) ->
    Alcotest.(check (float 0.0)) "the standby answers exactly" (truth boxes) value
  | Ok r -> Alcotest.failf "EST answered %s" (P.render_response r)
  | Error msg -> Alcotest.failf "EST failed: %s" msg);
  Alcotest.(check bool)
    (Printf.sprintf "EST answered while the lease waits (%.3fs < 0.3s)" dt)
    true (dt < 0.3);
  Alcotest.(check bool) "still a standby" false (Failover.is_active fo);
  Rpc.close conn;
  Failover.stop fo;
  Frontend.request_stop fe;
  Thread.join fe_th;
  Coordinator.shutdown standby;
  ignore (Coordinator.close primary ~name:"m");
  Coordinator.shutdown primary;
  stop_worker w;
  rm_rf (spool 92);
  Unix.close srv

(* --- epoch fencing, library level -------------------------------------- *)

let test_epoch_monotonic () =
  let w = start_worker 90 ~seed:9000 in
  let addrs = [ ("127.0.0.1", Server.port (fst w)) ] in
  let coord =
    Coordinator.create ~timeout:2.0 ~backoff:0.01 ~epoch:5 ~workers:addrs
      ~seed:5 ()
  in
  open_rect coord ~name:"m";
  (match Coordinator.announce_epoch coord ~epoch:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a decreasing epoch must be rejected");
  Alcotest.(check int) "every live worker stamped" 1
    (Coordinator.announce_epoch coord ~epoch:6);
  Alcotest.(check int) "the coordinator's epoch advances" 6
    (Coordinator.epoch coord);
  (* the worker's fence follows: HELLO now advertises the new epoch *)
  (match
     Rpc.connect ~host:"127.0.0.1" ~port:(Server.port (fst w)) ~timeout:2.0 ()
   with
  | Ok c ->
    (match Rpc.call c P.Hello with
    | Ok (P.Epoch_reply { epoch }) ->
      Alcotest.(check int) "worker HELLO carries the fence" 6 epoch
    | Ok r -> Alcotest.failf "HELLO answered %s" (P.render_response r)
    | Error msg -> Alcotest.failf "HELLO failed: %s" msg);
    Rpc.close c
  | Error err -> Alcotest.failf "dial: %s" (Rpc.describe_connect_error err));
  ignore (Coordinator.close coord ~name:"m");
  Coordinator.shutdown coord;
  stop_worker w;
  rm_rf (spool 90)

(* --- the replication chaos matrix -------------------------------------- *)

(* Scenario 1: kill a worker mid-ingest.  With R = 2 every payload lives on
   two distinct ring successors, so the survivor covers the victim's
   position: no gather is ever DEGRADED and the settled count equals the
   exact union — bit for bit what the fault-free run answers. *)
let scenario_kill_worker seed =
  let base = 100 + (seed mod 100) * 3 in
  let workers = List.init 3 (fun i -> start_worker (base + i) ~seed:(7000 + seed + i)) in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let chaos = Chaos.create (Chaos.config ~seed ()) in
  let boxes = boxes_for seed 24 in
  let plan = Chaos.kill_plan chaos ~procs:3 ~steps:(List.length boxes - 1) in
  let coord =
    Coordinator.create ~replicas:2 ~timeout:0.5 ~backoff:0.01
      ~batch:4 ~window:16 ~workers:addrs ~seed:(77 + seed) ()
  in
  let name = Printf.sprintf "repl-%d" seed in
  open_rect coord ~name;
  List.iteri
    (fun i b ->
      if i = plan.Chaos.after then stop_worker (List.nth workers plan.Chaos.victim);
      add_retry coord ~name (payload_of b))
    boxes;
  settle_exact
    ~ctx:(Printf.sprintf "seed %d: worker %d killed after %d adds" seed
            plan.Chaos.victim plan.Chaos.after)
    coord ~name ~truth:(truth boxes);
  ignore (Coordinator.close coord ~name);
  Coordinator.shutdown coord;
  List.iteri
    (fun i w -> if i <> plan.Chaos.victim then stop_worker w)
    workers;
  List.iteri (fun i _ -> rm_rf (spool (base + i))) workers

(* Scenario 2: kill the active coordinator mid-gather.  The standby's
   takeover rebuilds the session table from the workers' SESSIONS listings,
   announces a dominating epoch, and answers exactly; the deposed
   primary's late writes die at the fence. *)
let scenario_kill_coordinator seed =
  let base = 400 + (seed mod 100) * 2 in
  let workers = List.init 2 (fun i -> start_worker (base + i) ~seed:(8000 + seed + i)) in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let chaos = Chaos.create (Chaos.config ~seed ()) in
  let boxes = boxes_for (seed lxor 0x33) 24 in
  let plan = Chaos.kill_plan chaos ~procs:1 ~steps:(List.length boxes - 1) in
  let primary =
    Coordinator.create ~replicas:2 ~timeout:1.0 ~backoff:0.01 ~batch:4
      ~window:16 ~epoch:1 ~workers:addrs ~seed:(177 + seed) ()
  in
  let standby =
    Coordinator.create ~replicas:2 ~timeout:1.0 ~backoff:0.01 ~batch:4
      ~window:16 ~workers:addrs ~seed:(177 + seed) ()
  in
  (* the lease address is never polled here: the "crash" is simulated and
     the promotion forced, so the schedule stays deterministic *)
  let fo = Failover.create ~primary:("127.0.0.1", 1) ~coord:standby () in
  let name = Printf.sprintf "fo-%d" seed in
  open_rect primary ~name;
  let before = List.filteri (fun i _ -> i < plan.Chaos.after) boxes in
  let after = List.filteri (fun i _ -> i >= plan.Chaos.after) boxes in
  List.iter (fun b -> ok (Coordinator.add primary ~name ~payload:(payload_of b))) before;
  (* the primary's last act is a gather: every acked set reaches a worker *)
  let est1, d1, _ = ok (Coordinator.estimate primary ~name) in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: primary gather clean" seed)
    false d1;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "seed %d: primary exact before the crash" seed)
    (truth before) est1;
  (* the standby contract while the primary lives: queries only *)
  (match Coordinator.add standby ~name ~payload:"0 1 0 1" with
  | Error (P.Read_only _) -> ()
  | Ok () -> Alcotest.failf "seed %d: standby accepted a write" seed
  | Error e ->
    Alcotest.failf "seed %d: standby refused with %s, want READONLY" seed
      (P.error_code e));
  (* the crash: the primary's connections die mid-conversation *)
  Coordinator.shutdown primary;
  Failover.takeover_now fo;
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: standby promoted" seed)
    true (Failover.is_active fo);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: takeover epoch dominates the primary's" seed)
    true
    (Coordinator.epoch standby >= 2);
  (* the promoted standby carries on the same session from worker truth *)
  List.iter (fun b -> add_retry standby ~name (payload_of b)) after;
  settle_exact
    ~ctx:(Printf.sprintf "seed %d: promoted standby" seed)
    standby ~name ~truth:(truth boxes);
  (* the deposed primary reconnects, announces its stale epoch, and is
     fenced before any write lands *)
  (match Coordinator.add primary ~name ~payload:"0 299 0 299" with
  | Ok () -> Alcotest.failf "seed %d: deposed primary's write was accepted" seed
  | Error _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: deposed primary knows it is fenced" seed)
    true
    (Coordinator.is_fenced primary);
  (match Coordinator.add primary ~name ~payload:"0 299 0 299" with
  | Error (P.Fenced e) ->
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fence epoch %d dominates" seed e)
      true (e >= 2)
  | Ok () -> Alcotest.failf "seed %d: fenced primary still writing" seed
  | Error e ->
    Alcotest.failf "seed %d: want FENCED, got %s" seed (P.error_code e));
  (* and none of those attempts landed: the count is unchanged *)
  settle_exact
    ~ctx:(Printf.sprintf "seed %d: after fenced writes" seed)
    standby ~name ~truth:(truth boxes);
  ignore (Coordinator.close standby ~name);
  Failover.stop fo;
  Coordinator.shutdown standby;
  Coordinator.shutdown primary;
  List.iter stop_worker workers;
  List.iteri (fun i _ -> rm_rf (spool (base + i))) workers

(* Scenario 3: partition a worker away, then heal.  The black hole is
   asymmetric — writes claim success, nothing flows — so the coordinator
   discovers the loss only through missing acks; the victim's ring position
   stays covered by its replica throughout, and after the heal the victim
   rejoins with its pre-partition state intact. *)
let scenario_partition_heal seed =
  let base = 700 + (seed mod 100) * 3 in
  let workers = List.init 3 (fun i -> start_worker (base + i) ~seed:(9000 + seed + i)) in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let ports = List.map snd addrs in
  let chaos = Chaos.create (Chaos.config ~seed ()) in
  let io =
    {
      Rpc.io_read = Chaos.wrap_read chaos Unix.read;
      io_write = Chaos.wrap_write chaos Unix.write_substring;
    }
  in
  let coord =
    Coordinator.create ~replicas:2 ~timeout:0.3 ~backoff:0.01
      ~batch:4 ~window:16 ~io ~workers:addrs ~seed:(277 + seed) ()
  in
  let name = Printf.sprintf "part-%d" seed in
  let boxes = boxes_for (seed lxor 0x55) 24 in
  let first = List.filteri (fun i _ -> i < 12) boxes in
  let rest = List.filteri (fun i _ -> i >= 12) boxes in
  open_rect coord ~name;
  List.iter (fun b -> ok (Coordinator.add coord ~name ~payload:(payload_of b))) first;
  let plan = Chaos.kill_plan chaos ~procs:3 ~steps:1 in
  Chaos.partition chaos [ List.nth ports plan.Chaos.victim ];
  List.iter (fun b -> add_retry coord ~name (payload_of b)) rest;
  settle_exact
    ~ctx:(Printf.sprintf "seed %d: worker %d partitioned" seed plan.Chaos.victim)
    coord ~name ~truth:(truth boxes);
  Chaos.heal chaos;
  (* traffic resumes across the healed link; the victim rejoins once its
     quarantine lapses and the answer stays exact throughout *)
  let more = boxes_for (seed lxor 0x77) 8 in
  List.iter (fun b -> add_retry coord ~name (payload_of b)) more;
  settle_exact
    ~ctx:(Printf.sprintf "seed %d: healed" seed)
    coord ~name ~truth:(truth (boxes @ more));
  ignore (Coordinator.close coord ~name);
  Coordinator.shutdown coord;
  List.iter stop_worker workers;
  List.iteri (fun i _ -> rm_rf (spool (base + i))) workers

(* --- kill -9 against a live primary coordinator ------------------------ *)

(* The primary coordinator in its own PROCESS (a re-exec of this binary,
   same posix_spawn pattern as the WAL kill -9 test — fork is forbidden
   once any domain has spawned), serving the wire protocol over a
   [Frontend]; the parent runs the workers, a standby, and the lease
   monitor.  SIGKILL mid-service must promote the standby with no loss. *)
let coord_worker_env = "DELPHIC_COORD_WORKER"

let run_forked_coordinator spec =
  (match String.split_on_char '|' spec with
  | [ wports; seed; epoch; portfile ] ->
    (try
       let workers =
         List.map
           (fun p -> ("127.0.0.1", int_of_string p))
           (String.split_on_char ',' wports)
       in
       let coord =
         Coordinator.create ~replicas:2 ~timeout:2.0 ~backoff:0.01
           ~epoch:(int_of_string epoch) ~workers ~seed:(int_of_string seed) ()
       in
       let fe = Frontend.create ~port:0 ~dispatch:(Coordinator.dispatch coord) () in
       let th = Frontend.start fe in
       let oc = open_out portfile in
       output_string oc (string_of_int (Frontend.port fe));
       output_char oc '\n';
       close_out oc;
       Thread.join th
     with _ -> ())
  | _ -> prerr_endline "malformed DELPHIC_COORD_WORKER spec");
  exit 0

let maybe_forked_coordinator () =
  match Sys.getenv_opt coord_worker_env with
  | Some spec -> run_forked_coordinator spec
  | None -> ()

let fork_coordinator ~wports ~seed ~epoch ~portfile =
  let spec =
    Printf.sprintf "%s|%d|%d|%s"
      (String.concat "," (List.map string_of_int wports))
      seed epoch portfile
  in
  let env =
    Array.append (Unix.environment ()) [| coord_worker_env ^ "=" ^ spec |]
  in
  Unix.create_process_env Sys.executable_name
    [| Sys.executable_name |]
    env Unix.stdin Unix.stdout Unix.stderr

let test_kill9_coordinator_failover () =
  let tmp = Filename.get_temp_dir_name () in
  let portfile =
    Filename.concat tmp (Printf.sprintf "delphic-coord-e2e-port-%d" (Unix.getpid ()))
  in
  if Sys.file_exists portfile then Sys.remove portfile;
  let workers = List.init 2 (fun i -> start_worker (950 + i) ~seed:(5000 + i)) in
  let wports = List.map (fun (s, _) -> Server.port s) workers in
  let addrs = List.map (fun p -> ("127.0.0.1", p)) wports in
  let pid = fork_coordinator ~wports ~seed:606 ~epoch:1 ~portfile in
  let cport =
    wait_for ~timeout:10.0 "forked coordinator never published its port" (fun () ->
        match open_in portfile with
        | exception Sys_error _ -> None
        | ic ->
          let r = try int_of_string_opt (input_line ic) with End_of_file -> None in
          close_in_noerr ic;
          r)
  in
  let conn =
    wait_for ~timeout:10.0 "forked coordinator never answered HELLO" (fun () ->
        match Rpc.connect ~host:"127.0.0.1" ~port:cport ~timeout:2.0 () with
        | Error _ -> None
        | Ok c -> (
          match Rpc.call c P.Hello with
          | Ok (P.Epoch_reply { epoch = 1 }) -> Some c
          | _ ->
            Rpc.close c;
            None))
  in
  let standby =
    Coordinator.create ~replicas:2 ~timeout:1.0 ~backoff:0.01 ~workers:addrs
      ~seed:606 ()
  in
  let fo =
    Failover.create ~interval:0.1 ~primary:("127.0.0.1", cport) ~coord:standby ()
  in
  Failover.start fo;
  let gen = Rng.create ~seed:42 in
  let first =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:30 ~max_side:6
  in
  let rest =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:30 ~max_side:6
  in
  let wire req =
    match Rpc.call conn req with
    | Ok r -> r
    | Error msg -> Alcotest.failf "wire call failed: %s" msg
  in
  (match wire (P.Open
                 {
                   session = "fo";
                   family = P.Rect;
                   epsilon = 0.3;
                   delta = 0.2;
                   log2_universe = 17.0;
                 })
   with
  | P.Ok_reply _ -> ()
  | r -> Alcotest.failf "OPEN answered %s" (P.render_response r));
  List.iter
    (fun b ->
      match wire (P.Add { session = "fo"; payload = payload_of b; ts = None }) with
      | P.Ok_reply _ -> ()
      | r -> Alcotest.failf "ADD answered %s" (P.render_response r))
    first;
  (* the primary's gather flushes every staged set to the workers — the
     state the kill must not claw back *)
  (match wire (P.Est { session = "fo" }) with
  | P.Estimate { value; degraded = false; _ } ->
    Alcotest.(check (float 0.0)) "primary exact over the wire" (truth first) value
  | r -> Alcotest.failf "EST answered %s" (P.render_response r));
  (* the lease holds while the primary lives: still a standby after several
     poll intervals, and it refuses writes *)
  Thread.delay 0.4;
  Alcotest.(check bool) "standby passive while the lease renews" false
    (Failover.is_active fo);
  (match Coordinator.add standby ~name:"fo" ~payload:"0 1 0 1" with
  | Error (P.Read_only _) -> ()
  | _ -> Alcotest.fail "standby must refuse writes while the primary lives");

  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  wait_for ~timeout:10.0 "standby never promoted after the kill" (fun () ->
      if Failover.is_active fo then Some () else None);
  (* the workers' fence moved past the dead primary's epoch *)
  List.iter
    (fun p ->
      match Rpc.connect ~host:"127.0.0.1" ~port:p ~timeout:2.0 () with
      | Ok c ->
        (match Rpc.call c P.Hello with
        | Ok (P.Epoch_reply { epoch }) ->
          Alcotest.(check bool)
            (Printf.sprintf "worker %d fenced past epoch 1 (%d)" p epoch)
            true (epoch >= 2)
        | _ -> Alcotest.failf "worker %d HELLO failed" p);
        Rpc.close c
      | Error err -> Alcotest.failf "dial worker %d: %s" p (Rpc.describe_connect_error err))
    wports;
  (* no state lived only in the corpse: the promoted standby answers the
     exact phase-1 union at once, then carries the stream forward *)
  let est1, d1, stale1 = ok (Coordinator.estimate standby ~name:"fo") in
  Alcotest.(check bool) "promoted gather clean" false d1;
  Alcotest.(check (list int)) "no stale ring position" [] stale1;
  Alcotest.(check (float 0.0)) "kill -9 of the coordinator lost nothing"
    (truth first) est1;
  List.iter (fun b -> add_retry standby ~name:"fo" (payload_of b)) rest;
  settle_exact ~ctx:"promoted standby" standby ~name:"fo"
    ~truth:(truth (first @ rest));
  Rpc.close conn;
  ignore (Coordinator.close standby ~name:"fo");
  Failover.stop fo;
  Coordinator.shutdown standby;
  List.iter stop_worker workers;
  List.iteri (fun i _ -> rm_rf (spool (950 + i))) workers;
  Sys.remove portfile

(* --- a standby that takes over after an outage --------------------------- *)

(* Two workers.  The primary's link to the session's home is partitioned
   away during the second band; the link heals and the primary shuts
   down.  At R = 1 the band waits at the primary, and the shutdown
   releases it onto the home it dials again; at R = 2 the peer replica
   takes it alone and the primary marks the home incomplete.  The
   promoted standby saw none of it: promotion reads each replica once,
   replacing any that holds fewer items than the fullest.  A [warm]
   standby has already learned the session and gathered it before the
   partition, so its own last good sketch must not stand in for the
   workers' copies.  Either way the exact-regime answer counts both
   bands. *)
let test_standby_after_partition ~replicas ~warm () =
  let name = "outage" in
  let home = Hashtbl.hash name mod 2 in
  let base = 960 + (4 * replicas) + if warm then 2 else 0 in
  let workers = List.init 2 (fun i -> start_worker (base + i) ~seed:(5100 + i)) in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let chaos = Chaos.create (Chaos.config ~seed:3 ()) in
  let io =
    {
      Rpc.io_read = Chaos.wrap_read chaos Unix.read;
      io_write = Chaos.wrap_write chaos Unix.write_substring;
    }
  in
  let primary =
    Coordinator.create ~replicas ~timeout:0.3 ~backoff:0.01 ~batch:4 ~window:16
      ~io ~epoch:1 ~workers:addrs ~seed:41 ()
  in
  let standby =
    Coordinator.create ~replicas ~timeout:1.0 ~backoff:0.01 ~workers:addrs ~seed:41 ()
  in
  let fo = Failover.create ~primary:("127.0.0.1", 1) ~coord:standby () in
  let first = boxes_for 5 12 and rest = boxes_for 6 12 in
  open_rect primary ~name;
  List.iter (fun b -> ok (Coordinator.add primary ~name ~payload:(payload_of b))) first;
  Coordinator.flush primary;
  if warm then begin
    Alcotest.(check int) "standby learns the session" 1 (Coordinator.sync_sessions standby);
    let est, _, _ = ok (Coordinator.estimate standby ~name) in
    Alcotest.(check (float 0.0)) "warm standby reads the first band" (truth first) est
  end;
  Chaos.partition chaos [ snd (List.nth addrs home) ];
  List.iter (fun b -> add_retry primary ~name (payload_of b)) rest;
  Coordinator.flush primary;
  Chaos.heal chaos;
  Coordinator.shutdown primary;
  Failover.takeover_now fo;
  let est, degraded, stale = ok (Coordinator.estimate standby ~name) in
  Alcotest.(check bool) "promoted gather clean" false degraded;
  Alcotest.(check (list int)) "no stale ring position" [] stale;
  Alcotest.(check (float 0.0)) "the partitioned band is counted" (truth (first @ rest)) est;
  Failover.stop fo;
  Coordinator.shutdown standby;
  List.iter stop_worker workers;
  List.iteri (fun i _ -> rm_rf (spool (base + i))) workers

(* A standby writes nothing to workers.  R = 2 over two journal-less
   workers.  A read-only standby learns session [x] and reads it; then
   [x]'s home restarts on a wiped spool, and the standby's polls reach it
   before the primary does.  Had the standby re-opened [x] there, the
   primary's reconnect would read SESSION-EXISTS from an empty copy and
   trust it.  The standby leaves the home alone, so the primary's OPEN
   answers OK, the home is replaced from its peer, and the primary's
   answer stays exact. *)
let test_standby_writes_nothing () =
  let name = "x" in
  let home = Hashtbl.hash name mod 2 in
  let workers = Array.init 2 (fun i -> start_worker (600 + i) ~seed:(6000 + i)) in
  let ports = Array.map (fun (s, _) -> Server.port s) workers in
  let addrs = Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports) in
  let coord seed =
    Coordinator.create ~replicas:2 ~timeout:1.0 ~backoff:0.01 ~workers:addrs ~seed ()
  in
  let primary = coord 601 and standby = coord 602 in
  Coordinator.set_read_only standby true;
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown standby;
      Coordinator.shutdown primary;
      Array.iter stop_worker workers;
      Array.iteri (fun i _ -> rm_rf (spool (600 + i))) workers)
  @@ fun () ->
  let boxes = boxes_for 60 20 in
  open_rect primary ~name;
  List.iter (fun b -> ok (Coordinator.add primary ~name ~payload:(payload_of b))) boxes;
  Coordinator.flush primary;
  let est, _, _ = ok (Coordinator.estimate primary ~name) in
  Alcotest.(check (float 0.0)) "exact before the restart" (truth boxes) est;
  Alcotest.(check int) "standby learns the session" 1 (Coordinator.sync_sessions standby);
  ignore (ok (Coordinator.estimate standby ~name));
  stop_worker workers.(home);
  rm_rf (spool (600 + home));
  workers.(home) <- restart_worker (600 + home) ~port:ports.(home) ~seed:6010;
  ignore (Coordinator.sync_sessions standby);
  Thread.delay 0.2;
  ignore (Coordinator.sync_sessions standby);
  (match Rpc.connect ~host:"127.0.0.1" ~port:ports.(home) ~timeout:2.0 () with
  | Ok c ->
    (match Rpc.call c (P.Stats { session = name }) with
    | Ok (P.Error_reply (P.Unknown_session _)) -> ()
    | Ok r -> Alcotest.failf "the standby wrote to the home: STATS %s" (P.render_response r)
    | Error msg -> Alcotest.failf "STATS failed: %s" msg);
    Rpc.close c
  | Error err -> Alcotest.failf "dial the home: %s" (Rpc.describe_connect_error err));
  ignore (Coordinator.estimate primary ~name);
  Thread.delay 0.2;
  let est, degraded, _ = ok (Coordinator.estimate primary ~name) in
  Alcotest.(check bool) "the primary's gather is fresh" false degraded;
  Alcotest.(check (float 0.0)) "the primary still counts every set" (truth boxes) est

let repl_seeds = [ 11; 23; 37; 41; 53; 67; 79; 97 ]

let matrix =
  List.concat_map
    (fun seed ->
      [
        Alcotest.test_case
          (Printf.sprintf "seed %d: worker kill mid-ingest stays exact, never DEGRADED" seed)
          `Quick
          (fun () -> scenario_kill_worker seed);
        Alcotest.test_case
          (Printf.sprintf "seed %d: coordinator kill mid-gather fails over and fences" seed)
          `Quick
          (fun () -> scenario_kill_coordinator seed);
        Alcotest.test_case
          (Printf.sprintf "seed %d: partition covers, heal rejoins" seed)
          `Quick
          (fun () -> scenario_partition_heal seed);
      ])
    repl_seeds

let suite =
  [
    Alcotest.test_case "dial timeout is typed and bounded" `Quick test_dial_timeout;
    Alcotest.test_case "the lease monitor's wait leaves the front door free" `Quick
      test_monitor_leaves_front_door_free;
    Alcotest.test_case "epoch announcements are monotonic and reach the fence" `Quick
      test_epoch_monotonic;
    Alcotest.test_case "kill -9 of the live primary promotes the standby exactly"
      `Quick test_kill9_coordinator_failover;
    Alcotest.test_case "a standby that takes over after an outage counts the waiting sets"
      `Quick (test_standby_after_partition ~replicas:1 ~warm:false);
    Alcotest.test_case "a warm standby that gathered before an outage counts the waiting sets"
      `Quick (test_standby_after_partition ~replicas:1 ~warm:true);
    Alcotest.test_case "a standby taking over at R=2 replaces the replica the primary skipped"
      `Quick (test_standby_after_partition ~replicas:2 ~warm:false);
    Alcotest.test_case "a warm standby at R=2 replaces the replica the primary skipped"
      `Quick (test_standby_after_partition ~replicas:2 ~warm:true);
    Alcotest.test_case "a standby writes nothing to a restarted worker" `Quick
      test_standby_writes_nothing;
  ]
  @ matrix
