(* Loopback end-to-end test of the sharded cluster: three real worker
   servers, a real coordinator, real sockets.  Streams a rect workload
   through the scatter path, checks the gathered estimate against exact
   truth, then kills a session's home worker mid-stream and checks the
   cluster keeps answering — flagged degraded from its last good sketch —
   and counts every acknowledged set once the home is back. *)

module Server = Delphic_server.Server
module Wal = Delphic_server.Wal
module P = Delphic_server.Protocol
module Registry = Delphic_server.Registry
module Coordinator = Delphic_cluster.Coordinator
module Frontend = Delphic_cluster.Frontend
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
    (Printf.sprintf "delphic-cluster-spool-%d-%d" (Unix.getpid ()) n)

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

(* Start worker [n] again on [port], once the stopped one has let it go:
   from [wal] when given, else from whatever its spool holds. *)
let restart_worker ?wal n ~port ~seed =
  let rec create tries =
    match Server.create ?wal ~port ~spool:(spool n) ~seed () with
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

let check_close name est t =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f within tolerance of %.0f" name est t)
    true
    (Float.abs (est -. t) <= 0.3 *. t)

(* The coordinator's placement rule: a session's home ring position.  The
   kill tests fell the home, since a worker outside a session's replica
   window holds none of it. *)
let home name n = Hashtbl.hash name mod n

let ok = function
  | Ok v -> v
  | Error e ->
    Alcotest.failf "unexpected error: %s"
      (P.render_response (P.Error_reply e))

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

(* The first answer of a gather that is not DEGRADED: a restarted worker
   is redialled once its quarantine runs out. *)
let settled_estimate coord ~name =
  wait_for ~timeout:10.0 "the gather never came back fresh" (fun () ->
      match Coordinator.estimate coord ~name with
      | Ok (v, false, _) -> Some v
      | Ok (_, true, _) | Error _ -> None)

let test_scatter_gather_failover () =
  let workers = Array.init 3 (fun n -> start_worker n ~seed:(100 + n)) in
  let ports = Array.map (fun (s, _) -> Server.port s) workers in
  let workers = Array.to_list workers in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let coord =
    Coordinator.create ~timeout:5.0 ~backoff:0.01 ~workers:addrs ~seed:4242 ()
  in
  let gen = Rng.create ~seed:31 in
  let first =
    Workload.Rectangles.uniform gen ~universe:100_000 ~dim:2 ~count:300
      ~max_side:400
  in
  let rest =
    Workload.Rectangles.uniform gen ~universe:100_000 ~dim:2 ~count:120
      ~max_side:400
  in
  ok
    (Coordinator.open_session coord ~name:"e2e" ~family:P.Rect ~epsilon:0.2
       ~delta:0.1 ~log2_universe:34.0);
  Alcotest.(check int) "all workers reached by OPEN" 3
    (Coordinator.live_workers coord);

  (* phase 1: a duplicate-heavy stream into three live workers *)
  let stream = Workload.Orders.bursty ~copies:20 first in
  List.iter
    (fun b -> ok (Coordinator.add coord ~name:"e2e" ~payload:(payload_of b)))
    stream;
  let est, degraded, _ = ok (Coordinator.estimate coord ~name:"e2e") in
  Alcotest.(check bool) "not degraded with all workers up" false degraded;
  check_close "phase 1" est (truth first);

  let st = ok (Coordinator.stats coord ~name:"e2e") in
  Alcotest.(check int) "every add accounted for" (List.length stream)
    st.P.items;
  (* a lone payload ships as a one-payload ADDB: a malformed one is listed
     in the home's ack and counted once, not refused with the frame *)
  ok (Coordinator.add coord ~name:"e2e" ~payload:"not a box");
  let st = ok (Coordinator.stats coord ~name:"e2e") in
  Alcotest.(check int) "a malformed lone payload is one reject" 1 st.P.parse_rejects;
  Alcotest.(check int) "and lands nowhere" (List.length stream) st.P.items;

  (* kill the session's home; its sketch survives as the coordinator's
     last good snapshot from the phase-1 gather, and the rest waits for
     the home at the coordinator *)
  let victim = home "e2e" 3 in
  stop_worker (List.nth workers victim);
  List.iter
    (fun b -> ok (Coordinator.add coord ~name:"e2e" ~payload:(payload_of b)))
    (Workload.Orders.bursty ~copies:2 rest);
  let est2, degraded2, _ = ok (Coordinator.estimate coord ~name:"e2e") in
  Alcotest.(check bool) "degraded after losing a worker" true degraded2;
  check_close "phase 2 answers from the last good sketch" est2 (truth first);

  (* the sketch round-trips as one snapshot token: cluster-of-clusters *)
  let encoded = ok (Coordinator.fetch coord ~name:"e2e") in
  Alcotest.(check bool) "sketch is one decodable token" true
    (Result.is_ok (Delphic_core.Snapshot_io.decode encoded));

  (* the home comes back from the spool its stop wrote, and the waiting
     sets land on it *)
  let revived = restart_worker victim ~port:ports.(victim) ~seed:(110 + victim) in
  let workers = List.mapi (fun i w -> if i = victim then revived else w) workers in
  check_close "phase 3 counts the waiting sets" (settled_estimate coord ~name:"e2e")
    (truth (first @ rest));

  (* a sketch built outside the pool joins the union through MERGE *)
  let extra =
    Workload.Rectangles.uniform gen ~universe:100_000 ~dim:2 ~count:120
      ~max_side:400
  in
  let outsider, oth = start_worker 3 ~seed:555 in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port outsider));
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let rpc line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  Alcotest.(check string) "outsider open" "OK opened e2e"
    (rpc "OPEN e2e rect 0.2 0.1 34");
  List.iter (fun b -> ignore (rpc ("ADD e2e " ^ payload_of b))) extra;
  let sketch = rpc "SNAPSHOT e2e" in
  Alcotest.(check bool) "outsider sketch" true
    (String.length sketch > 7 && String.sub sketch 0 7 = "SKETCH ");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  stop_worker (outsider, oth);
  rm_rf (spool 3);
  (* the v1 line carries the token percent-armored *)
  let token =
    match P.unarmor_payload (String.sub sketch 7 (String.length sketch - 7)) with
    | Ok t -> t
    | Error msg -> Alcotest.failf "outsider SKETCH token: %s" msg
  in
  ok (Coordinator.merge_in coord ~name:"e2e" ~encoded:token);
  let est3, _, _ = ok (Coordinator.estimate coord ~name:"e2e") in
  check_close "external sketch folded in" est3 (truth (first @ rest @ extra));

  ok (Coordinator.close coord ~name:"e2e");
  Coordinator.shutdown coord;
  List.iter stop_worker workers;
  List.iteri (fun n _ -> rm_rf (spool n)) workers

(* Mid-stream worker kill during batched scatter must lose no acked set.
   Small exact-regime sessions make the check sharp: every worker sketch
   stays an exact element list and the estimate equals the exact union,
   so a single dropped set would show as a wrong count, not as tolerable
   noise.  A small batch/window forces partially-filled frames across the
   kill boundary.  The home comes back without its spool: it is replaced
   from the last good sketch, and the sets that waited for it land. *)
let test_batched_kill_no_loss () =
  let workers = Array.init 2 (fun n -> start_worker (20 + n) ~seed:(300 + n)) in
  let ports = Array.map (fun (s, _) -> Server.port s) workers in
  let workers = Array.to_list workers in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let coord =
    Coordinator.create ~timeout:5.0 ~backoff:0.01 ~batch:8 ~window:32
      ~workers:addrs ~seed:99 ()
  in
  let gen = Rng.create ~seed:77 in
  let first =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:30 ~max_side:6
  in
  let rest =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:30 ~max_side:6
  in
  ok
    (Coordinator.open_session coord ~name:"nl" ~family:P.Rect ~epsilon:0.3
       ~delta:0.2 ~log2_universe:17.0);
  List.iter
    (fun b -> ok (Coordinator.add coord ~name:"nl" ~payload:(payload_of b)))
    first;
  (* the gather inside estimate acks every frame and stores each worker's
     last good sketch — the state the kill must not claw back *)
  let est1, degraded1, _ = ok (Coordinator.estimate coord ~name:"nl") in
  Alcotest.(check bool) "clean before the kill" false degraded1;
  Alcotest.(check (float 0.0)) "exact union before the kill" (truth first) est1;
  let victim = home "nl" 2 in
  stop_worker (List.nth workers victim);
  List.iter
    (fun b -> ok (Coordinator.add coord ~name:"nl" ~payload:(payload_of b)))
    rest;
  let est2, degraded2, _ = ok (Coordinator.estimate coord ~name:"nl") in
  Alcotest.(check bool) "degraded after the kill" true degraded2;
  Alcotest.(check (float 0.0)) "the last good sketch" (truth first) est2;
  rm_rf (spool (20 + victim));
  let revived = restart_worker (20 + victim) ~port:ports.(victim) ~seed:(310 + victim) in
  Alcotest.(check (float 0.0)) "no acked set lost" (truth (first @ rest))
    (settled_estimate coord ~name:"nl");
  ignore (Coordinator.close coord ~name:"nl");
  Coordinator.shutdown coord;
  stop_worker revived;
  stop_worker (List.nth workers (1 - victim));
  List.iteri (fun n _ -> rm_rf (spool (20 + n))) workers

(* Cluster-wide WIN: the coordinator pins one query instant and forwards
   it as [WIN … at=], so the replica expires against that instant —
   exact-regime content makes agreement a count equality, not a tolerance
   check.  After a mid-ingest kill of the home the gather answers DEGRADED
   from its last good (full) sketch, and that fallback must be re-windowed
   coordinator-side: a stale sketch honoring the cutoff contributes
   nothing old, so the degraded answer equals the exact union of the band
   it saw.  Once the home is back the waiting sets land on it. *)
let test_win_cluster_kill () =
  let workers = Array.init 3 (fun n -> start_worker (40 + n) ~seed:(500 + n)) in
  let ports = Array.map (fun (s, _) -> Server.port s) workers in
  let workers = Array.to_list workers in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let coord =
    Coordinator.create ~timeout:5.0 ~backoff:0.01 ~batch:8 ~window:32
      ~workers:addrs ~seed:808 ()
  in
  let gen = Rng.create ~seed:91 in
  let boxes count =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count ~max_side:6
  in
  let first = boxes 30 and rest = boxes 30 and late = boxes 20 in
  ok
    (Coordinator.open_session coord ~name:"w" ~family:P.Rect ~epsilon:0.3
       ~delta:0.2 ~log2_universe:17.0);
  (* timestamped ingest: [first] spans t in [10, 40), [rest] t in [100, 130),
     [late] t in [200, 220) — three bands with clean gaps to cut between *)
  let ingest ~t0 bs =
    List.iteri
      (fun i b ->
        ok
          (Coordinator.add coord ~name:"w"
             ~ts:(t0 +. float_of_int i)
             ~payload:(payload_of b)))
      bs
  in
  ingest ~t0:10.0 first;
  let est1, degraded1, _ = ok (Coordinator.estimate coord ~name:"w") in
  Alcotest.(check bool) "clean before the kill" false degraded1;
  Alcotest.(check (float 0.0)) "full gather exact" (truth first) est1;
  ingest ~t0:100.0 rest;
  (* one cutoff: the suffix union is exact only if the worker expired
     against that instant *)
  let w1, d1, _ = ok (Coordinator.win coord ~name:"w" ~seconds:60.0 ~at:(Some 130.0)) in
  Alcotest.(check bool) "windowed gather clean" false d1;
  Alcotest.(check (float 0.0)) "WIN 60 = exact suffix union" (truth rest) w1;
  let w2, _, _ = ok (Coordinator.win coord ~name:"w" ~seconds:125.0 ~at:(Some 130.0)) in
  Alcotest.(check (float 0.0)) "WIN covering both bands" (truth (first @ rest)) w2;
  let w3, _, _ = ok (Coordinator.win coord ~name:"w" ~seconds:infinity ~at:None) in
  let est2, _, _ = ok (Coordinator.estimate coord ~name:"w") in
  Alcotest.(check (float 0.0)) "WIN inf = EST" est2 w3;
  Alcotest.(check (float 0.0)) "WIN inf folds everything" (truth (first @ rest)) w3;
  (* repeated query at the same instant is stable *)
  let w1', _, _ = ok (Coordinator.win coord ~name:"w" ~seconds:60.0 ~at:(Some 130.0)) in
  Alcotest.(check (float 0.0)) "repeat WIN identical" w1 w1';
  (* kill a worker mid-ingest of the third band *)
  let half = List.filteri (fun i _ -> i < 10) late in
  let other = List.filteri (fun i _ -> i >= 10) late in
  ingest ~t0:200.0 half;
  (* a full gather before the kill: these workers run without a journal, so
     the victim's acked sets survive only as the coordinator's last good
     sketch — which this estimate stores (a WIN never does) *)
  ignore (ok (Coordinator.estimate coord ~name:"w"));
  let whalf, dh, _ = ok (Coordinator.win coord ~name:"w" ~seconds:80.0 ~at:(Some 240.0)) in
  Alcotest.(check bool) "clean mid-band gather" false dh;
  Alcotest.(check (float 0.0)) "WIN mid-band exact" (truth half) whalf;
  let victim = home "w" 3 in
  stop_worker (List.nth workers victim);
  ingest ~t0:210.0 other;
  let wd, dd, _ = ok (Coordinator.win coord ~name:"w" ~seconds:80.0 ~at:(Some 240.0)) in
  Alcotest.(check bool) "WIN degraded after the kill" true dd;
  (* cutoff 160: only the [late] band survives, and the last good sketch
     saw its first half.  That fallback is the victim's FULL sketch
     (first @ rest @ half) — were it not re-windowed, [wd] would count the
     old bands too *)
  Alcotest.(check (float 0.0)) "DEGRADED answer honors the cutoff" (truth half) wd;
  let wall, degraded_all, _ =
    ok (Coordinator.win coord ~name:"w" ~seconds:infinity ~at:None)
  in
  Alcotest.(check bool) "full window still degraded" true degraded_all;
  Alcotest.(check (float 0.0)) "the full last good sketch" (truth (first @ rest @ half)) wall;
  (* the home restarts from the spool its stop wrote; the other half of
     the band waited for it *)
  let revived = restart_worker (40 + victim) ~port:ports.(victim) ~seed:(510 + victim) in
  let workers = List.mapi (fun i w -> if i = victim then revived else w) workers in
  let wfresh =
    wait_for ~timeout:10.0 "WIN never came back fresh" (fun () ->
        match Coordinator.win coord ~name:"w" ~seconds:80.0 ~at:(Some 240.0) with
        | Ok (v, false, _) -> Some v
        | Ok (_, true, _) | Error _ -> None)
  in
  Alcotest.(check (float 0.0)) "fresh WIN counts the waiting sets" (truth late) wfresh;
  let wall, _, _ = ok (Coordinator.win coord ~name:"w" ~seconds:infinity ~at:None) in
  Alcotest.(check (float 0.0)) "no acked set lost across the kill"
    (truth (first @ rest @ late)) wall;
  ignore (Coordinator.close coord ~name:"w");
  Coordinator.shutdown coord;
  List.iter stop_worker workers;
  List.iteri (fun n _ -> rm_rf (spool (40 + n))) workers

(* The gather gives the whole collect phase ONE shared deadline.  Four
   workers served by Frontend-wrapped registries; the session's two
   replicas sleep past the timeout on Fetch.  Falling from the home to its
   peer with a fresh budget each would take >= 2 timeouts; the shared
   deadline takes ~1.  Exact-regime equality proves the answer fell back
   to the last good sketch, and a later quiet gather proves the replicas
   rejoin undegraded. *)
let test_slow_workers_share_one_deadline () =
  let slow = Atomic.make false in
  let replica n = (n - home "slow" 4 + 4) mod 4 < 2 in
  let workers =
    List.init 4 (fun n ->
        let reg = Registry.create ~seed:(700 + n) () in
        let dispatch req =
          (match req with
          | (P.Fetch _ | P.Fetch_since _) when replica n && Atomic.get slow -> Thread.delay 1.0
          | _ -> ());
          Registry.dispatch reg req
        in
        let fe = Frontend.create ~port:0 ~dispatch () in
        (fe, Frontend.start fe))
  in
  let addrs = List.map (fun (fe, _) -> ("127.0.0.1", Frontend.port fe)) workers in
  let timeout = 0.4 in
  let coord =
    Coordinator.create ~replicas:2 ~timeout ~backoff:0.01 ~workers:addrs ~seed:1234 ()
  in
  let gen = Rng.create ~seed:55 in
  let boxes =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:40 ~max_side:6
  in
  ok
    (Coordinator.open_session coord ~name:"slow" ~family:P.Rect ~epsilon:0.3
       ~delta:0.2 ~log2_universe:17.0);
  List.iter
    (fun b -> ok (Coordinator.add coord ~name:"slow" ~payload:(payload_of b)))
    boxes;
  (* the clean gather stores the replica's sketch as the last good *)
  let est1, degraded1, _ = ok (Coordinator.estimate coord ~name:"slow") in
  Alcotest.(check bool) "clean gather not degraded" false degraded1;
  Alcotest.(check (float 0.0)) "clean gather exact" (truth boxes) est1;

  Atomic.set slow true;
  let t0 = Unix.gettimeofday () in
  let est2, degraded2, _ = ok (Coordinator.estimate coord ~name:"slow") in
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set slow false;
  Alcotest.(check bool) "degraded with slow workers" true degraded2;
  Alcotest.(check (float 0.0)) "last-good sketches used" (truth boxes) est2;
  Alcotest.(check bool)
    (Printf.sprintf "two slow workers cost one shared deadline (%.2fs < %.2fs)"
       elapsed (1.8 *. timeout))
    true
    (elapsed < 1.8 *. timeout);

  (* quarantine expires, the workers kept their sessions: quiet again.
     The frontends are single-threaded event loops, so the slow home's
     loop stays inside its 1.0s sleeping dispatch until the sleep ends —
     wait it out (plus the 0.1s quarantine margin) before re-querying. *)
  Thread.delay (max 0.1 (1.0 -. elapsed +. 0.2));
  let est3, degraded3, _ = ok (Coordinator.estimate coord ~name:"slow") in
  Alcotest.(check bool) "recovered after quarantine" false degraded3;
  Alcotest.(check (float 0.0)) "recovered exact" (truth boxes) est3;

  (* a second coordinator over the same pool folds the same exact answer *)
  let coord1 = Coordinator.create ~replicas:2 ~timeout ~workers:addrs ~seed:1234 () in
  ok
    (Coordinator.open_session coord1 ~name:"slow" ~family:P.Rect ~epsilon:0.3
       ~delta:0.2 ~log2_universe:17.0);
  let est4, _, _ = ok (Coordinator.estimate coord1 ~name:"slow") in
  Alcotest.(check (float 0.0)) "second coordinator folds the same answer" est2 est4;
  Coordinator.shutdown coord1;
  Coordinator.shutdown coord;
  List.iter
    (fun (fe, th) ->
      Frontend.request_stop fe;
      Thread.join th)
    workers

(* At R = 2 a hung home must not spend the whole gather budget.  Three
   Frontend-wrapped registries; only the session's home sleeps past the
   timeout on Fetch.  The home is asked with half of what is left, so its
   peer still answers inside one timeout: the answer is fresh, not
   DEGRADED from the last good sketch, and exact. *)
let test_slow_home_peer_answers () =
  let name = "hung" in
  let slow = Atomic.make false in
  let workers =
    List.init 3 (fun n ->
        let reg = Registry.create ~seed:(720 + n) () in
        let dispatch req =
          (match req with
          | (P.Fetch _ | P.Fetch_since _) when n = home name 3 && Atomic.get slow -> Thread.delay 1.0
          | _ -> ());
          Registry.dispatch reg req
        in
        let fe = Frontend.create ~port:0 ~dispatch () in
        (fe, Frontend.start fe))
  in
  let addrs = List.map (fun (fe, _) -> ("127.0.0.1", Frontend.port fe)) workers in
  let timeout = 0.4 in
  let coord =
    Coordinator.create ~replicas:2 ~timeout ~backoff:0.01 ~workers:addrs ~seed:1235 ()
  in
  let boxes =
    Workload.Rectangles.uniform (Rng.create ~seed:56) ~universe:300 ~dim:2 ~count:40
      ~max_side:6
  in
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0);
  List.iter (fun b -> ok (Coordinator.add coord ~name ~payload:(payload_of b))) boxes;
  let _, degraded1, _ = ok (Coordinator.estimate coord ~name) in
  Alcotest.(check bool) "clean gather not degraded" false degraded1;
  Atomic.set slow true;
  let t0 = Unix.gettimeofday () in
  let est, degraded, stale = ok (Coordinator.estimate coord ~name) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set slow false;
  Alcotest.(check bool) "the peer answers fresh" false degraded;
  Alcotest.(check (list int)) "no stale ring position" [] stale;
  Alcotest.(check (float 0.0)) "fresh answer exact" (truth boxes) est;
  Alcotest.(check bool)
    (Printf.sprintf "inside one timeout (%.2fs < %.2fs)" elapsed timeout)
    true (elapsed < timeout);
  Coordinator.shutdown coord;
  List.iter
    (fun (fe, th) ->
      Frontend.request_stop fe;
      Thread.join th)
    workers

(* The connections queued on [srv] since the last call: every dial is one. *)
let dials srv =
  Unix.set_nonblock srv;
  let rec go n =
    match Unix.accept srv with
    | fd, _ ->
      Unix.close fd;
      go (n + 1)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> n
  in
  go 0

(* Re-routing a dead worker's window dials each other replica at most once.
   R = 3 over three workers: the session's home is a real server, and its
   two peers refuse connections until, with the home stopped and eight
   payloads staged on it, each becomes a hung listener.  The flush that
   finds the home dead only parks its window: a flush dials nothing, so
   neither listener is dialed.  The next EST is the placement that
   re-routes it: it dials each peer once, each HELLO waits out the 0.3 s
   timeout, and the window keeps waiting.  Re-placing after each failed
   dial would dial a listener again whenever its short quarantine ran out
   during the other's wait.  The next ADD, a placement, dials each once
   more. *)
let test_reroute_dials_once () =
  let name = List.find (fun n -> home n 3 = 0) (List.init 50 (Printf.sprintf "rd%d")) in
  let a = start_worker 130 ~seed:6000 in
  (* two free ports, refusing connections until the listeners bind them *)
  let free_port () =
    let srv, p = Test_failover.raw_listener ~backlog:1 () in
    Unix.close srv;
    p
  in
  (* a dial into a listener that never accepts connects, and its HELLO
     then waits out the whole timeout: a worker whose loop is stuck *)
  let hung port = fst (Test_failover.raw_listener ~port ~backlog:64 ()) in
  let p1 = free_port () and p2 = free_port () in
  let coord =
    Coordinator.create ~replicas:3 ~timeout:0.3 ~backoff:0.001
      ~workers:[ ("127.0.0.1", Server.port (fst a)); ("127.0.0.1", p1); ("127.0.0.1", p2) ]
      ~seed:6060 ()
  in
  let boxes =
    Workload.Rectangles.uniform (Rng.create ~seed:60) ~universe:300 ~dim:2 ~count:16
      ~max_side:6
  in
  let before = List.filteri (fun i _ -> i < 8) boxes
  and after = List.filteri (fun i _ -> i >= 8) boxes in
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0);
  List.iter (fun b -> ok (Coordinator.add coord ~name ~payload:(payload_of b))) before;
  let est1, degraded1, _ = ok (Coordinator.estimate coord ~name) in
  Alcotest.(check bool) "home answers fresh" false degraded1;
  Alcotest.(check (float 0.0)) "home exact" (truth before) est1;
  List.iter (fun b -> ok (Coordinator.add coord ~name ~payload:(payload_of b))) after;
  stop_worker a;
  let h1 = hung p1 and h2 = hung p2 in
  Thread.delay 0.2 (* past the quarantines the refused dials left *);
  Coordinator.flush coord;
  Alcotest.(check (pair int int)) "the flush dials neither hung replica" (0, 0)
    (dials h1, dials h2);
  let est2, degraded2, _ = ok (Coordinator.estimate coord ~name) in
  Alcotest.(check (pair int int)) "the EST dials each hung replica once" (1, 1)
    (dials h1, dials h2);
  Alcotest.(check bool) "degraded without a live replica" true degraded2;
  Alcotest.(check (float 0.0)) "last good sketch" (truth before) est2;
  Thread.delay 0.05 (* past the quarantines the EST left *);
  ok (Coordinator.add coord ~name ~payload:"0 1 0 1");
  Alcotest.(check (pair int int)) "the ADD dials each hung replica once" (1, 1)
    (dials h1, dials h2);
  Coordinator.shutdown coord;
  Unix.close h1;
  Unix.close h2;
  rm_rf (spool 130)

(* R = 1 over three journaled workers, with the session's home stopped
   after an EST has noticed it.  While it is down, [window] new sets are
   acknowledged and wait at the coordinator, and the next one is refused
   with an error naming the session; EST answers DEGRADED from the last
   good sketch, and no worker outside the window takes a set.  Once the
   home restarts from its journal the waiting sets land on it, and the
   settled answer counts every acknowledged set exactly. *)
let test_outage_waits_for_the_home () =
  let name = "out" in
  let window = 16 in
  let wal n =
    { Server.dir = spool (150 + n) ^ "-wal"; fsync = Wal.Interval 0.05; checkpoint_every = 64 }
  in
  let rm_wal n =
    let dir = (wal n).Server.dir in
    rm_rf (Filename.concat dir "checkpoint");
    rm_rf dir
  in
  let workers =
    Array.init 3 (fun n ->
        rm_wal n;
        rm_rf (spool (150 + n));
        restart_worker ~wal:(wal n) (150 + n) ~port:0 ~seed:(1500 + n))
  in
  let ports = Array.map (fun (s, _) -> Server.port s) workers in
  let coord =
    Coordinator.create ~timeout:0.3 ~backoff:0.01 ~batch:4 ~window
      ~workers:(Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports))
      ~seed:1515 ()
  in
  let gen = Rng.create ~seed:151 in
  let first = Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:10 ~max_side:6 in
  let waiting =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:window ~max_side:6
  in
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0);
  List.iter (fun b -> ok (Coordinator.add coord ~name ~payload:(payload_of b))) first;
  Alcotest.(check (float 0.0)) "fresh before the outage" (truth first)
    (settled_estimate coord ~name);
  let victim = home name 3 in
  stop_worker workers.(victim);
  let _, noticed, _ = ok (Coordinator.estimate coord ~name) in
  Alcotest.(check bool) "the EST notices the outage" true noticed;
  List.iter (fun b -> ok (Coordinator.add coord ~name ~payload:(payload_of b))) waiting;
  (match Coordinator.add coord ~name ~payload:"0 1 0 1" with
  | Ok () -> Alcotest.fail "a set past the waiting window must be refused"
  | Error e ->
    Alcotest.(check string) "the refusal names the session"
      (Printf.sprintf "session %s: %d sets already wait for an unreachable replica" name window)
      (P.describe_error e));
  let v, degraded, stale = ok (Coordinator.estimate coord ~name) in
  Alcotest.(check bool) "DEGRADED while the home is down" true degraded;
  Alcotest.(check (list int)) "the home is the stale position" [ victim ] stale;
  Alcotest.(check (float 0.0)) "from the last good sketch" (truth first) v;
  Array.iteri
    (fun i (_, _) ->
      if i <> victim then begin
        let c = Test_server.connect ports.(i) in
        (match P.parse_response (Test_server.rpc c ("STATS " ^ name)) with
        | Ok (P.Stats_reply st) ->
          Alcotest.(check int) (Printf.sprintf "worker %d outside the window holds nothing" i) 0
            st.P.items
        | _ -> Alcotest.failf "worker %d: STATS failed" i);
        Test_server.disconnect c
      end)
    workers;
  workers.(victim) <-
    restart_worker ~wal:(wal victim) (150 + victim) ~port:ports.(victim) ~seed:(1600 + victim);
  Alcotest.(check (float 0.0)) "every acknowledged set, exactly" (truth (first @ waiting))
    (settled_estimate coord ~name);
  Coordinator.shutdown coord;
  Array.iter stop_worker workers;
  Array.iteri
    (fun n _ ->
      rm_wal n;
      rm_rf (spool (150 + n)))
    workers

(* A one-worker pool whose home dies with frames unacknowledged and comes
   back empty.  The frames are written after the stop, into the dead
   connection, so no ack can come for them (written before it, the worker
   could still ack them and then lose them with its wiped spool).  No other
   worker can take the window, so it waits; at the reconnect the home is
   replaced from the last good sketch first — its CLOSE would wipe
   anything shipped earlier — and then the window lands.  The
   exact-regime answer counts every acknowledged set. *)
let test_empty_home_gets_the_waiting_window () =
  let name = "solo" in
  let w = start_worker 160 ~seed:1700 in
  let port = Server.port (fst w) in
  let coord =
    Coordinator.create ~timeout:0.3 ~backoff:0.01 ~batch:4 ~window:16
      ~workers:[ ("127.0.0.1", port) ] ~seed:1717 ()
  in
  let gen = Rng.create ~seed:171 in
  let first = Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:10 ~max_side:6 in
  let unacked = Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:8 ~max_side:6 in
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0);
  List.iter (fun b -> ok (Coordinator.add coord ~name ~payload:(payload_of b))) first;
  Alcotest.(check (float 0.0)) "fresh before the death" (truth first)
    (settled_estimate coord ~name);
  stop_worker w;
  rm_rf (spool 160);
  (* two full frames shipped into the dead connection *)
  List.iter (fun b -> ok (Coordinator.add coord ~name ~payload:(payload_of b))) unacked;
  let w = restart_worker 160 ~port ~seed:1800 in
  Alcotest.(check (float 0.0)) "every acknowledged set" (truth (first @ unacked))
    (settled_estimate coord ~name);
  Coordinator.shutdown coord;
  stop_worker w;
  rm_rf (spool 160)

(* The same line protocol end to end: a Frontend serving
   Coordinator.dispatch over TCP, exercised with a raw socket like any
   client would — including the UNSUPPORTED-verb reply. *)
let test_frontend_protocol () =
  let workers = List.init 2 (fun n -> start_worker (10 + n) ~seed:(200 + n)) in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let coord = Coordinator.create ~timeout:5.0 ~workers:addrs ~seed:7 () in
  let fe =
    Frontend.create ~port:0 ~dispatch:(Coordinator.dispatch coord) ()
  in
  let th = Frontend.start fe in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Frontend.port fe));
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let rpc line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  Alcotest.(check string) "ping" "PONG" (rpc "PING");
  Alcotest.(check string) "open" "OK opened c1" (rpc "OPEN c1 rect 0.3 0.2 20");
  Alcotest.(check string) "add" "OK" (rpc "ADD c1 0 9 0 9");
  Alcotest.(check string) "add 2" "OK" (rpc "ADD c1 5 14 0 9");
  Alcotest.(check string) "exact estimate" "EST 150" (rpc "EST c1");
  (* one ADDB frame over the wire: a duplicate box and a new 5x10 strip *)
  Alcotest.(check string) "addb" "OKB 2"
    (rpc "ADDB c1 2 0%209%200%209 15%2019%200%209");
  Alcotest.(check string) "estimate after addb" "EST 200" (rpc "EST c1");
  let reply = rpc "FROB c1" in
  Alcotest.(check string) "unsupported verb" "ERR UNSUPPORTED FROB" reply;
  Alcotest.(check string) "still serving after bad verb" "PONG" (rpc "PING");
  (* SNAPSHOT <sid> gathers; MERGE feeds it back through a worker *)
  let sketch = rpc "SNAPSHOT c1" in
  Alcotest.(check bool)
    (Printf.sprintf "sketch reply (%s)" sketch)
    true
    (String.length sketch > 7 && String.sub sketch 0 7 = "SKETCH ");
  let token = String.sub sketch 7 (String.length sketch - 7) in
  Alcotest.(check string) "merge back" "OK merged into c1"
    (rpc ("MERGE c1 " ^ token));
  Alcotest.(check string) "estimate unchanged by self-merge" "EST 200"
    (rpc "EST c1");
  Alcotest.(check string) "close" "OK closed c1" (rpc "CLOSE c1");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Frontend.request_stop fe;
  Thread.join th;
  Coordinator.shutdown coord;
  List.iter stop_worker workers;
  List.iteri (fun n _ -> rm_rf (spool (10 + n))) workers

(* --- ingest lands before the read -------------------------------------- *)

(* A worker's own view of a session, asked directly rather than through
   the coordinator, so the question never triggers a coordinator flush. *)
let worker_items port name =
  match Rpc.connect ~host:"127.0.0.1" ~port ~timeout:2.0 () with
  | Error e -> Alcotest.failf "dial worker: %s" (Rpc.describe_connect_error e)
  | Ok conn ->
    Fun.protect
      ~finally:(fun () -> Rpc.close conn)
      (fun () ->
        match Rpc.call conn (P.Stats { session = name }) with
        | Ok (P.Stats_reply s) -> s.P.items
        | Ok r -> Alcotest.failf "worker STATS: %s" (P.render_response r)
        | Error msg -> Alcotest.failf "worker STATS: %s" msg)

(* A client ADDB is already a batch, so the coordinator writes the frames it
   routed before [add_batch] returns: with no further coordinator call, each
   worker's STATS must show the items.  Ten payloads sit far below the
   64-payload staging mark, so a coordinator that held them until the next
   gather would leave both workers empty.  At R = 2 over two workers every
   payload lands on both — once as the primary (ADDB), once as the backup
   (ADDL), which the worker applies on arrival. *)
let test_add_batch_ships_without_read () =
  let workers = List.init 2 (fun n -> start_worker (50 + n) ~seed:(600 + n)) in
  let ports = List.map (fun (s, _) -> Server.port s) workers in
  let coord =
    Coordinator.create ~replicas:2 ~timeout:5.0 ~backoff:0.01
      ~workers:(List.map (fun p -> ("127.0.0.1", p)) ports)
      ~seed:61 ()
  in
  ok
    (Coordinator.open_session coord ~name:"ship" ~family:P.Rect ~epsilon:0.3
       ~delta:0.2 ~log2_universe:17.0);
  let gen = Rng.create ~seed:29 in
  let boxes =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:10 ~max_side:6
  in
  let accepted, errors =
    ok (Coordinator.add_batch coord ~name:"ship" ~payloads:(List.map payload_of boxes))
  in
  Alcotest.(check int) "every payload routed" 10 accepted;
  Alcotest.(check int) "no routing errors" 0 (List.length errors);
  List.iteri
    (fun i port ->
      wait_for ~timeout:2.0
        (Printf.sprintf "worker %d never saw the acknowledged sets" i)
        (fun () -> if worker_items port "ship" = 10 then Some () else None))
    ports;
  Coordinator.shutdown coord;
  List.iter stop_worker workers;
  List.iteri (fun n _ -> rm_rf (spool (50 + n))) workers

(* The replica-log backlog failure, scaled down.  Backup copies that a
   worker only logged were absorbed by the next read, inline, so a long
   stream of big sketch-regime boxes with no read in between made that
   read's FETCH outlast the gather deadline on every replica: the answer
   came back DEGRADED, or "no worker holds any data" when no earlier
   gather had left a fallback.  With copies applied on arrival a gather
   waits for at most [window] unacked payload units per worker.  The
   backlog (2 600 E1-sized boxes, about 0.6 s of estimator work per worker
   at ε = 0.2) is sized against a 0.4 s timeout; the small window keeps the
   fresh side far inside it. *)
let test_backlog_gather_is_fresh () =
  let workers = List.init 2 (fun n -> start_worker (60 + n) ~seed:(700 + n)) in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let coord =
    Coordinator.create ~replicas:2 ~timeout:0.4 ~backoff:0.01 ~batch:16 ~window:32
      ~workers:addrs ~seed:67 ()
  in
  ok
    (Coordinator.open_session coord ~name:"big" ~family:P.Rect ~epsilon:0.2
       ~delta:0.2 ~log2_universe:40.0);
  let gen = Rng.create ~seed:41 in
  let boxes =
    Workload.Rectangles.uniform gen ~universe:1_000_000 ~dim:2 ~count:2600
      ~max_side:60_000
  in
  let rec frames = function
    | [] -> ()
    | l ->
      let frame = List.filteri (fun i _ -> i < 64) l in
      let _, errors =
        ok (Coordinator.add_batch coord ~name:"big" ~payloads:(List.map payload_of frame))
      in
      Alcotest.(check int) "no routing errors" 0 (List.length errors);
      frames (List.filteri (fun i _ -> i >= 64) l)
  in
  frames boxes;
  (match Coordinator.estimate coord ~name:"big" with
  | Ok (v, degraded, stale) ->
    Alcotest.(check bool)
      (Printf.sprintf "fresh after the backlog (stale shards [%s])"
         (String.concat "," (List.map string_of_int stale)))
      false degraded;
    Alcotest.(check bool) "a positive estimate" true (v > 0.0)
  | Error e -> Alcotest.failf "EST after the backlog: %s" (P.render_response (P.Error_reply e)));
  Coordinator.shutdown coord;
  List.iter stop_worker workers;
  List.iteri (fun n _ -> rm_rf (spool (60 + n))) workers

(* --- replacement at reconnect ------------------------------------------ *)

(* A replica that missed payloads is replaced when it rejoins, never merged
   into.  R = 2 over three workers: the session's second replica B stops,
   a band is ingested that only A takes, and B restarts from its spool
   holding the first band alone.  Once B is live again it must hold
   exactly A's copy — its item count equals A's, where a merge into its
   own stale copy would count the first band twice.  Then A dies and a
   third band lands on B alone: the exact-regime answer, read from B's
   copy, counts every acknowledged set. *)
let test_replacement_at_reconnect () =
  let name = "rep" in
  let a = home name 3 in
  let b = (a + 1) mod 3 in
  let workers = Array.init 3 (fun n -> start_worker (80 + n) ~seed:(900 + n)) in
  let ports = Array.map (fun (s, _) -> Server.port s) workers in
  let coord =
    Coordinator.create ~replicas:2 ~timeout:2.0 ~backoff:0.01 ~batch:8 ~window:32
      ~workers:(Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports))
      ~seed:83 ()
  in
  let gen = Rng.create ~seed:47 in
  let band () = Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:20 ~max_side:6 in
  let first = band () and second = band () and third = band () in
  let ingest bs =
    List.iter (fun box -> ok (Coordinator.add coord ~name ~payload:(payload_of box))) bs;
    Coordinator.flush coord
  in
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0);
  ingest first;
  (* a graceful stop spools B's copy of [first] *)
  Server.request_stop (fst workers.(b));
  Thread.join (snd workers.(b));
  ingest second;
  let rec restart tries =
    match Server.create ~port:ports.(b) ~spool:(spool (80 + b)) ~seed:950 () with
    | s -> s
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 0 ->
      Thread.delay 0.05;
      restart (tries - 1)
  in
  let revived = restart 40 in
  workers.(b) <- (revived, Server.start revived);
  (* a gather reconnects the replicas: B rejoins, and is replaced there *)
  wait_for ~timeout:10.0 "the restarted replica never rejoined" (fun () ->
      Coordinator.flush coord;
      ignore (Coordinator.estimate coord ~name);
      if Coordinator.live_workers coord = 3 then Some () else None);
  Alcotest.(check int) "B holds A's copy, not a merge into its own"
    (worker_items ports.(a) name) (worker_items ports.(b) name);
  stop_worker workers.(a);
  ingest third;
  let est =
    wait_for ~timeout:10.0 "no clean gather after losing A" (fun () ->
        Coordinator.flush coord;
        match Coordinator.estimate coord ~name with
        | Ok (v, false, _) -> Some v
        | Ok (_, true, _) | Error _ -> None)
  in
  Alcotest.(check (float 0.0)) "every acknowledged set counted from B's copy"
    (truth (first @ second @ third)) est;
  Coordinator.shutdown coord;
  Array.iteri (fun i w -> if i <> a then stop_worker w) workers;
  Array.iteri (fun n _ -> rm_rf (spool (80 + n))) workers

(* --- EXPR over a live cluster ----------------------------------------- *)

(* Set-expression queries against three sharded sessions, evaluated
   coordinator-side from the same gathers EST uses.  Small exact-regime
   content keeps every folded leaf an exact table, so [A | B] answers the
   union size exactly (every draw hits) and [(A & B) \ C] carries the
   documented exact-probe bound.  The query runs mid-ingest (C half
   loaded), then again after a worker kill — the degraded flag must agree
   with EST's. *)
let test_expr_cluster () =
  let workers = List.init 3 (fun n -> start_worker (30 + n) ~seed:(400 + n)) in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let coord =
    Coordinator.create ~timeout:5.0 ~backoff:0.01 ~workers:addrs ~seed:17 ()
  in
  let gen = Rng.create ~seed:83 in
  (* content sized so even the three-leaf fold stays inside the exact
     capacity (~2400 at these parameters): sharp exact-regime assertions *)
  let boxes () =
    Workload.Rectangles.uniform gen ~universe:80 ~dim:2 ~count:15 ~max_side:14
  in
  let set_a = boxes () and set_b = boxes () and set_c = boxes () in
  let open_s name =
    ok
      (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3
         ~delta:0.2 ~log2_universe:17.0)
  in
  List.iter open_s [ "A"; "B"; "C" ];
  let ingest name bs =
    List.iter (fun b -> ok (Coordinator.add coord ~name ~payload:(payload_of b))) bs
  in
  let c_half = List.filteri (fun i _ -> i < 8) set_c in
  let c_rest = List.filteri (fun i _ -> i >= 8) set_c in
  ingest "A" set_a;
  ingest "B" set_b;
  ingest "C" c_half;
  let parse = Delphic_stream.Parsers.expr_of_string in
  (* exact |expr| by grid enumeration over the current leaf contents *)
  let exact_count expr ~c =
    let sets = [ ("A", set_a); ("B", set_b); ("C", c) ] in
    let n = ref 0 in
    for x = 0 to 79 do
      for y = 0 to 79 do
        let p = [| x; y |] in
        let lookup name = Exact.rectangle_union_mem (List.assoc name sets) p in
        if P.Expr_ast.eval_bool lookup expr then incr n
      done
    done;
    float_of_int !n
  in
  (* mid-ingest: C is half loaded, the expression sees its current state *)
  let e_union = parse "A | B" in
  (match ok (Coordinator.expr_query coord ~expr:e_union ~m:(Some 1024)) with
  | P.Expr_ast.Estimate { value; quality; _ }, degraded ->
    Alcotest.(check bool) "union query clean with all workers up" false degraded;
    Alcotest.(check bool) "exact probes" true (quality = P.Expr_ast.Exact_probes);
    (* every union draw is a hit, so the answer is the union size itself *)
    Alcotest.(check (float 0.0)) "A | B answers the exact union"
      (exact_count e_union ~c:c_half) value
  | P.Expr_ast.Low_support _, _ -> Alcotest.fail "A | B cannot lack support");
  let e_deep = parse "(A & B) \\ C" in
  let tol = 0.35 in
  (match ok (Coordinator.expr_query coord ~expr:e_deep ~m:(Some 4096)) with
  | P.Expr_ast.Estimate { value; quality; _ }, degraded ->
    Alcotest.(check bool) "deep query clean" false degraded;
    Alcotest.(check bool) "deep query exact probes" true
      (quality = P.Expr_ast.Exact_probes);
    let tru = exact_count e_deep ~c:c_half in
    Alcotest.(check bool)
      (Printf.sprintf "(A & B) \\ C mid-ingest: %.0f within %.0f%% of %.0f" value
         (100.0 *. tol) tru)
      true
      (Float.abs (value -. tru) <= tol *. tru)
  | P.Expr_ast.Low_support { support; needed; _ }, _ ->
    Alcotest.failf "(A & B) \\ C: low support %.1f < %.1f" support needed);
  (* finish C's ingest, then lose A's home: the gather answers from last
     good snapshots and both EST and EXPR must say so *)
  ingest "C" c_rest;
  (match ok (Coordinator.expr_query coord ~expr:e_deep ~m:(Some 4096)) with
  | P.Expr_ast.Estimate _, degraded ->
    Alcotest.(check bool) "still clean after C completes" false degraded
  | P.Expr_ast.Low_support _, _ -> Alcotest.fail "C complete: support vanished");
  let victim = home "A" 3 in
  stop_worker (List.nth workers victim);
  let _, est_degraded, _ = ok (Coordinator.estimate coord ~name:"A") in
  Alcotest.(check bool) "EST degraded after the kill" true est_degraded;
  (match ok (Coordinator.expr_query coord ~expr:e_deep ~m:(Some 4096)) with
  | P.Expr_ast.Estimate { value; _ }, degraded ->
    Alcotest.(check bool) "EXPR degraded agrees with EST" est_degraded degraded;
    let tru = exact_count e_deep ~c:set_c in
    Alcotest.(check bool)
      (Printf.sprintf "(A & B) \\ C degraded: %.0f within %.0f%% of %.0f" value
         (100.0 *. tol) tru)
      true
      (Float.abs (value -. tru) <= tol *. tru)
  | P.Expr_ast.Low_support { support; needed; _ }, _ ->
    Alcotest.failf "degraded expr: low support %.1f < %.1f" support needed);
  (* a leaf the cluster has never opened is a clean error *)
  (match Coordinator.expr_query coord ~expr:(parse "A & ghost") ~m:None with
  | Error e ->
    Alcotest.(check string) "unknown leaf" "UNKNOWN-SESSION" (P.error_code e)
  | Ok _ -> Alcotest.fail "ghost leaf must be UNKNOWN-SESSION");
  List.iter (fun n -> ignore (Coordinator.close coord ~name:n)) [ "A"; "B"; "C" ];
  Coordinator.shutdown coord;
  List.iteri (fun i w -> if i <> victim then stop_worker w) workers;
  List.iteri (fun n _ -> rm_rf (spool (30 + n))) workers

(* Sketch-regime EXPR through [dispatch] — a coordinator's or a single
   registry's, the two callers of the one evaluation path.  A and B take
   E1-sized boxes and sketch; C stays exact with the same parameters.
   Mixed exact and sketching leaves are answered with sketch probes, and
   a leaf of another family, rect dimension or ε is refused with
   BAD-PARAMS whether the other leaves sketch or not: the refusals the
   union fold used to give must survive the path that folds nothing. *)
let check_sketch_expr ~dispatch =
  let send line =
    match P.parse_request line with
    | Ok r -> dispatch r
    | Error e -> Alcotest.failf "parse %S: %s" line (P.error_code e)
  in
  let expect_ok line =
    match send line with
    | P.Ok_reply _ | P.Ok_batch _ -> ()
    | r -> Alcotest.failf "%s: %s" line (P.render_response r)
  in
  List.iter expect_ok
    [
      "OPEN A rect 0.3 0.2 40"; "OPEN B rect 0.3 0.2 40"; "OPEN C rect 0.3 0.2 40";
      "OPEN D dnf:8 0.3 0.2 8"; "OPEN E rect 0.25 0.2 40"; "OPEN F rect 0.3 0.2 40";
    ];
  let gen = Rng.create ~seed:29 in
  let big = Workload.Rectangles.uniform gen ~universe:1_000_000 ~dim:2 ~count:12 ~max_side:60_000 in
  List.iteri
    (fun i box ->
      expect_ok ("ADD A " ^ payload_of box);
      if i mod 2 = 0 then expect_ok ("ADD B " ^ payload_of box))
    big;
  List.iter expect_ok
    [ "ADD C 0 9 0 9"; "ADD D 1 -2"; "ADD E 0 9 0 9"; "ADD F 0 9 0 9 0 9" ];
  let answered line =
    match send line with
    | P.Expr_reply { quality; _ } ->
      Alcotest.(check bool) (line ^ " reads sketch probes") true (quality = P.Probes_sketch)
    | r -> Alcotest.failf "%s: %s" line (P.render_response r)
  in
  answered "EXPR (A & B) \\ C";
  answered "EXPR A | C";
  let refused line =
    match send line with
    | P.Error_reply e -> Alcotest.(check string) (line ^ " is refused") "BAD-PARAMS" (P.error_code e)
    | r -> Alcotest.failf "%s must be refused: %s" line (P.render_response r)
  in
  (* against sketching leaves, then against an exact one *)
  List.iter refused
    [ "EXPR (A & B) | E"; "EXPR A \\ F"; "EXPR A & D"; "EXPR C | E"; "EXPR C \\ F"; "EXPR C & D" ]

let test_sketch_expr_coordinator () =
  let workers = List.init 3 (fun n -> start_worker (90 + n) ~seed:(1000 + n)) in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  let coord = Coordinator.create ~timeout:5.0 ~backoff:0.01 ~workers:addrs ~seed:19 () in
  check_sketch_expr ~dispatch:(Coordinator.dispatch coord);
  Coordinator.shutdown coord;
  List.iter stop_worker workers;
  List.iteri (fun n _ -> rm_rf (spool (90 + n))) workers

let test_sketch_expr_registry () =
  check_sketch_expr ~dispatch:(Registry.dispatch (Registry.create ~seed:23 ()))

(* --- kill -9 against a journaled worker ------------------------------- *)

let rm_rf_deep dir =
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm dir

(* A worker in its own PROCESS, so the parent can kill -9 it: the child
   opens a WAL-backed server, publishes its port through [portfile], and
   serves until killed.  Bind retried briefly — a restart can race the
   kernel reclaiming the predecessor's address.

   The child is a re-exec of this test binary via posix_spawn
   ([Unix.create_process_env]), NOT a [Unix.fork]: the OCaml 5 runtime
   forbids fork for the rest of the process's life once any domain has ever
   been spawned, and this test binary spawns domains elsewhere: the
   concurrent clients of [test_mt] and [Delphic_harness.Parallel.map] in
   [test_harness].  [maybe_forked_wal_worker] (called from
   test_main before Alcotest takes over) diverts the re-exec'd child into
   worker mode when it sees the spec in its environment. *)
let wal_worker_env = "DELPHIC_WAL_WORKER"

let run_forked_wal_worker spec =
  (match String.split_on_char '|' spec with
  | [ wal_dir; spool_dir; port; seed; portfile ] ->
    let port = int_of_string port and seed = int_of_string seed in
    (try
       let rec create tries =
         match
           Server.create
             ~wal:
               {
                 Server.dir = wal_dir;
                 fsync = Wal.Interval 0.05;
                 checkpoint_every = 4;
               }
             ~port ~spool:spool_dir ~seed ()
         with
         | s -> s
         | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 0 ->
           Thread.delay 0.1;
           create (tries - 1)
       in
       let s = create 20 in
       let oc = open_out portfile in
       output_string oc (string_of_int (Server.port s));
       output_char oc '\n';
       close_out oc;
       Server.serve s
     with _ -> ())
  | _ -> prerr_endline "malformed DELPHIC_WAL_WORKER spec");
  exit 0

let maybe_forked_wal_worker () =
  match Sys.getenv_opt wal_worker_env with
  | Some spec -> run_forked_wal_worker spec
  | None -> ()

let fork_wal_worker ~wal_dir ~spool_dir ~port ~seed ~portfile =
  let spec =
    Printf.sprintf "%s|%s|%d|%d|%s" wal_dir spool_dir port seed portfile
  in
  let env =
    Array.append (Unix.environment ()) [| wal_worker_env ^ "=" ^ spec |]
  in
  Unix.create_process_env Sys.executable_name
    [| Sys.executable_name |]
    env Unix.stdin Unix.stdout Unix.stderr

(* Raw-socket readiness probe: [Some ()] once the worker answers HELLO. *)
let hello_ready port =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
    let finish r =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      r
    in
    try
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      output_string oc "HELLO\n";
      flush oc;
      match String.split_on_char ' ' (input_line ic) with
      | [ "EPOCH"; _ ] -> finish (Some ())
      | _ -> finish None
    with Unix.Unix_error _ | Sys_error _ | End_of_file -> finish None)

(* The tentpole end to end: a journaled worker is killed with SIGKILL mid
   conversation and restarted on the same port; the coordinator's
   reconnect re-opens every session and re-drives; the WAL replay hands back
   every acknowledged set.  Exact-regime equality makes the recovery check
   sharp: the estimate is a count, one lost set = wrong answer.  Crucially
   no gather runs before the kill, so the coordinator holds no last-good
   sketch for the victim — the recovered state can only have come from the
   checkpoint + journal on disk. *)
let test_kill9_wal_recovery () =
  let tmp = Filename.get_temp_dir_name () in
  let wal_dir = Filename.concat tmp (Printf.sprintf "delphic-wal-e2e-%d" (Unix.getpid ())) in
  let spool_dir = Filename.concat tmp (Printf.sprintf "delphic-wal-e2e-spool-%d" (Unix.getpid ())) in
  let portfile = Filename.concat tmp (Printf.sprintf "delphic-wal-e2e-port-%d" (Unix.getpid ())) in
  rm_rf_deep wal_dir;
  rm_rf_deep spool_dir;
  if Sys.file_exists portfile then Sys.remove portfile;
  (* the victim forks FIRST, before this test owns any thread *)
  let pid_a = fork_wal_worker ~wal_dir ~spool_dir ~port:0 ~seed:4000 ~portfile in
  let port =
    wait_for ~timeout:10.0 "forked worker never published its port" (fun () ->
        match open_in portfile with
        | exception Sys_error _ -> None
        | ic ->
          let r = try int_of_string_opt (input_line ic) with End_of_file -> None in
          close_in_noerr ic;
          r)
  in
  wait_for ~timeout:10.0 "forked worker never answered HELLO" (fun () -> hello_ready port);
  let sibling, sibling_th = start_worker 30 ~seed:4100 in
  let coord =
    Coordinator.create ~timeout:2.0 ~backoff:0.01 ~batch:8 ~window:32
      ~workers:[ ("127.0.0.1", port); ("127.0.0.1", Server.port sibling) ]
      ~seed:606 ()
  in
  let gen = Rng.create ~seed:42 in
  let first =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:30 ~max_side:6
  in
  let rest =
    Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:30 ~max_side:6
  in
  ok
    (Coordinator.open_session coord ~name:"crash" ~family:P.Rect ~epsilon:0.3
       ~delta:0.2 ~log2_universe:17.0);
  List.iter
    (fun b -> ok (Coordinator.add coord ~name:"crash" ~payload:(payload_of b)))
    first;
  (* every phase-1 set acked — and, by the WAL contract, journaled — but
     deliberately never gathered *)
  Coordinator.flush coord;

  Unix.kill pid_a Sys.sigkill;
  ignore (Unix.waitpid [] pid_a);
  let pid_b = fork_wal_worker ~wal_dir ~spool_dir ~port ~seed:4001 ~portfile in
  wait_for ~timeout:10.0 "restarted worker never answered HELLO" (fun () -> hello_ready port);

  List.iter
    (fun b -> ok (Coordinator.add coord ~name:"crash" ~payload:(payload_of b)))
    rest;
  (* the coordinator notices the dead connection on first use, re-routes,
     reconnects, re-opens and re-drives; give the quarantine a
     few beats to expire before insisting on a clean gather *)
  let est =
    wait_for ~timeout:10.0 "cluster never produced a clean gather" (fun () ->
        Coordinator.flush coord;
        match Coordinator.estimate coord ~name:"crash" with
        | Ok (est, false, _) -> Some est
        | Ok (_, true, _) | Error _ -> None)
  in
  Alcotest.(check (float 0.0)) "kill -9 lost no acknowledged set"
    (truth (first @ rest)) est;
  let st = ok (Coordinator.stats coord ~name:"crash") in
  Alcotest.(check int) "no payload was rejected" 0 st.P.parse_rejects;

  ok (Coordinator.close coord ~name:"crash");
  Coordinator.shutdown coord;
  Unix.kill pid_b Sys.sigkill;
  ignore (Unix.waitpid [] pid_b);
  stop_worker (sibling, sibling_th);
  rm_rf (spool 30);
  rm_rf_deep wal_dir;
  rm_rf_deep spool_dir;
  Sys.remove portfile

(* Pipelined ingest into journaled workers at the configuration
   [delphic worker --wal DIR] builds: fsync every 0.2 s, a checkpoint every
   512 records, v2 from the coordinator, one event loop per worker.
   Three workers take twelve sessions of 3 072 small boxes each, frames of
   64 dealt round the sessions.  Every [add_batch] must return well inside the coordinator's
   2 s timeout, and every session's exact-regime answer must count every
   acknowledged set (a session's union, about 12k cells, stays under the
   15k exact-table capacity at these parameters).  Regression test for
   the group-commit ack stall (DESIGN.md §3, the decision record). *)
let test_wal_ingest_acks_promptly () =
  let timeout = 2.0 in
  let dir n = spool (70 + n) ^ "-wal" in
  let workers =
    List.init 3 (fun n ->
        rm_rf (spool (70 + n));
        rm_rf_deep (dir n);
        let s =
          Server.create
            ~wal:
              { Server.dir = dir n; fsync = Wal.Interval 0.2; checkpoint_every = 512 }
            ~port:0 ~spool:(spool (70 + n)) ~seed:(800 + n) ()
        in
        (s, Server.start s))
  in
  let coord =
    Coordinator.create ~timeout
      ~workers:(List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers)
      ~seed:71 ()
  in
  let gen = Rng.create ~seed:43 in
  let sessions =
    List.init 12 (fun i ->
        let name = Printf.sprintf "ingest%d" i in
        ok
          (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.2
             ~delta:0.2 ~log2_universe:40.0);
        ( name,
          Workload.Rectangles.uniform gen ~universe:100_000 ~dim:2 ~count:3072
            ~max_side:3 ))
  in
  let slowest = ref 0.0 in
  for f = 0 to (3072 / 64) - 1 do
    List.iter
      (fun (name, boxes) ->
        let frame = List.filteri (fun i _ -> i / 64 = f) boxes in
        let t0 = Unix.gettimeofday () in
        let accepted, errors =
          ok (Coordinator.add_batch coord ~name ~payloads:(List.map payload_of frame))
        in
        slowest := Float.max !slowest (Unix.gettimeofday () -. t0);
        Alcotest.(check int) "frame accepted" 64 accepted;
        Alcotest.(check int) "no routing errors" 0 (List.length errors))
      sessions
  done;
  Alcotest.(check bool)
    (Printf.sprintf "slowest add_batch %.3f s is under a quarter of the timeout" !slowest)
    true
    (!slowest < timeout /. 4.0);
  List.iter
    (fun (name, boxes) ->
      match Coordinator.estimate coord ~name with
      | Ok (v, degraded, _) ->
        Alcotest.(check bool) (name ^ " not degraded") false degraded;
        Alcotest.(check (float 0.0)) (name ^ " exact answer") (truth boxes) v
      | Error e -> Alcotest.failf "EST %s: %s" name (P.render_response (P.Error_reply e)))
    sessions;
  Coordinator.shutdown coord;
  List.iter stop_worker workers;
  List.iteri
    (fun n _ ->
      rm_rf (spool (70 + n));
      rm_rf_deep (dir n))
    workers

(* --- versioned fetch: an idle gather ships no token -------------------- *)

(* Socket ops for a coordinator that count the bytes it reads and keep
   what it writes. *)
let metered_io () =
  let read = Atomic.make 0 and written = Buffer.create 4096 and lock = Mutex.create () in
  let io =
    {
      Rpc.io_read =
        (fun fd buf off len ->
          let k = Unix.read fd buf off len in
          ignore (Atomic.fetch_and_add read k);
          k);
      io_write =
        (fun fd s off len ->
          let k = Unix.write_substring fd s off len in
          Mutex.protect lock (fun () -> Buffer.add_substring written s off k);
          k);
    }
  in
  (io, read, fun () -> Mutex.protect lock (fun () -> Buffer.contents written))

(* One EST and the bytes the coordinator read for it. *)
let metered_estimate coord read ~name =
  let before = Atomic.get read in
  let r = Coordinator.estimate coord ~name in
  (r, Atomic.get read - before)

(* A worker's current token for [name], read over its own connection. *)
let direct_call port req =
  match Rpc.connect ~host:"127.0.0.1" ~port ~timeout:5.0 () with
  | Error e -> Alcotest.failf "dial worker: %s" (Rpc.describe_connect_error e)
  | Ok conn ->
    Fun.protect ~finally:(fun () -> Rpc.close conn) (fun () ->
        match Rpc.call conn req with
        | Ok r -> r
        | Error msg -> Alcotest.failf "direct call: %s" msg)

let token_length port name =
  match direct_call port (P.Fetch { session = name; cutoff = None }) with
  | P.Sketch token -> String.length token
  | r -> Alcotest.failf "direct FETCH: %s" (P.render_response r)

(* Two in-process workers, a metered coordinator, and session [ver] loaded
   with a band of small boxes (exact regime: every answer is a count).
   [f] gets the home's port, a band generator, and the two probes: [exact]
   asserts a clean exact EST and returns the bytes it read, [full] also
   asserts that it read at least a whole token. *)
let with_versioned_session f =
  let name = "ver" in
  let workers = List.init 2 (fun n -> start_worker (90 + n) ~seed:(1000 + n)) in
  let ports = List.map (fun (s, _) -> Server.port s) workers in
  let port = List.nth ports (home name 2) in
  let io, read, _ = metered_io () in
  let coord =
    Coordinator.create ~io ~timeout:5.0 ~backoff:0.01
      ~workers:(List.map (fun p -> ("127.0.0.1", p)) ports)
      ~seed:91 ()
  in
  let gen = Rng.create ~seed:92 in
  let band () = Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:30 ~max_side:6 in
  let first = band () in
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0);
  ignore (ok (Coordinator.add_batch coord ~name ~payloads:(List.map payload_of first)));
  Coordinator.flush coord;
  let exact what boxes =
    match metered_estimate coord read ~name with
    | Ok (v, degraded, _), bytes ->
      Alcotest.(check bool) (what ^ ": not degraded") false degraded;
      Alcotest.(check (float 0.0)) (what ^ ": exact") (truth boxes) v;
      bytes
    | Error e, _ -> Alcotest.failf "%s: %s" what (P.render_response (P.Error_reply e))
  in
  let full what boxes =
    let len = token_length port name in
    let bytes = exact what boxes in
    Alcotest.(check bool)
      (Printf.sprintf "%s: read %d bytes, a %d-byte token" what bytes len)
      true (bytes >= len)
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown coord;
      List.iter stop_worker workers;
      List.iteri (fun n _ -> rm_rf (spool (90 + n))) workers)
    (fun () ->
      full "first gather" first;
      f ~name ~port ~band ~first ~exact ~full)

(* Two ESTs of an idle session: the second gather's fetch is answered
   UNCHANGED, so the coordinator reads less than one token, and answers
   the same. *)
let test_idle_gather_ships_no_token () =
  with_versioned_session (fun ~name ~port ~band:_ ~first ~exact ~full:_ ->
      let len = token_length port name in
      let bytes = exact "idle gather" first in
      Alcotest.(check bool)
        (Printf.sprintf "idle gather read %d bytes, less than the %d-byte token" bytes len)
        true (bytes < len))

(* Mutations reach the home straight from a client, behind the
   coordinator's back — ADDB, MERGE, and CLOSE + OPEN + re-ingest — and
   each next EST must read a whole token again and answer exactly. *)
let test_direct_mutation_ships_token () =
  with_versioned_session (fun ~name ~port ~band ~first ~exact ~full ->
      let direct req =
        match direct_call port req with
        | P.Ok_reply _ | P.Ok_batch _ -> ()
        | r -> Alcotest.failf "direct mutation: %s" (P.render_response r)
      in
      let open_req =
        P.Open { session = name; family = P.Rect; epsilon = 0.3; delta = 0.2; log2_universe = 17.0 }
      in
      let addb boxes =
        direct (P.Add_batch { session = name; payloads = List.map payload_of boxes; ts = None })
      in
      let second = band () in
      addb second;
      full "after a direct ADDB" (first @ second);
      ignore (exact "idle again" (first @ second));
      let outside = band () in
      let peer = Registry.create ~seed:93 () in
      ignore (Registry.dispatch peer open_req);
      ignore (Registry.add_batch peer ~name ~payloads:(List.map payload_of outside));
      direct (P.Merge { session = name; encoded = Result.get_ok (Registry.fetch peer ~name) });
      full "after a direct MERGE" (first @ second @ outside);
      let fresh = band () in
      direct (P.Close { session = name });
      direct open_req;
      addb fresh;
      full "after a direct CLOSE + OPEN + re-ingest" fresh)

(* A version is trusted only on the connection it came on.  A journaled
   worker (its own process) answers two gathers, is killed with SIGKILL and
   restarted from its WAL, counting versions from 1 again.  The first fetch
   on the new connection must name version 0, read a whole token, and the
   answer must be exact. *)
let test_restart_forgets_versions () =
  let tmp = Filename.get_temp_dir_name () in
  let path what = Filename.concat tmp (Printf.sprintf "delphic-ver-%s-%d" what (Unix.getpid ())) in
  let wal_dir = path "wal" and spool_dir = path "spool" and portfile = path "port" in
  rm_rf_deep wal_dir;
  rm_rf_deep spool_dir;
  if Sys.file_exists portfile then Sys.remove portfile;
  (* every child is killed however the test ends, so none outlives it *)
  let children = ref [] in
  let kill pid =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  let spawn ~port ~seed =
    let pid = fork_wal_worker ~wal_dir ~spool_dir ~port ~seed ~portfile in
    children := pid :: !children;
    let port =
      wait_for ~timeout:10.0 "forked worker never published its port" (fun () ->
          match open_in portfile with
          | exception Sys_error _ -> None
          | ic ->
            let r = try int_of_string_opt (input_line ic) with End_of_file -> None in
            close_in_noerr ic;
            r)
    in
    wait_for ~timeout:10.0 "forked worker never answered HELLO" (fun () -> hello_ready port);
    (pid, port)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill !children;
      rm_rf_deep wal_dir;
      rm_rf_deep spool_dir;
      if Sys.file_exists portfile then Sys.remove portfile)
  @@ fun () ->
  let pid_a, port = spawn ~port:0 ~seed:4200 in
  let io, read, written = metered_io () in
  let coord =
    Coordinator.create ~io ~timeout:2.0 ~backoff:0.01 ~workers:[ ("127.0.0.1", port) ] ~seed:94 ()
  in
  let name = "restart" in
  let boxes =
    Workload.Rectangles.uniform (Rng.create ~seed:95) ~universe:300 ~dim:2 ~count:30 ~max_side:6
  in
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0);
  ignore (ok (Coordinator.add_batch coord ~name ~payloads:(List.map payload_of boxes)));
  Coordinator.flush coord;
  ignore (ok (Coordinator.estimate coord ~name));
  ignore (ok (Coordinator.estimate coord ~name));
  kill pid_a;
  Sys.remove portfile;
  ignore (spawn ~port ~seed:4201);
  let len = token_length port name in
  let mark = String.length (written ()) in
  let est, bytes =
    wait_for ~timeout:10.0 "no clean gather after the restart" (fun () ->
        match metered_estimate coord read ~name with
        | Ok (v, false, _), bytes -> Some (v, bytes)
        | (Ok (_, true, _) | Error _), _ -> None)
  in
  Alcotest.(check (float 0.0)) "exact after the restart" (truth boxes) est;
  Alcotest.(check bool)
    (Printf.sprintf "read %d bytes, a whole %d-byte token" bytes len)
    true (bytes >= len);
  (* the new connection is the last to open with the v2 preamble; a fetch
     written to the dead one before its death was noticed does not count *)
  let sent = written () in
  let index_from pat i =
    let n = String.length pat in
    let rec go i =
      if i + n > String.length sent then None
      else if String.sub sent i n = pat then Some i
      else go (i + 1)
    in
    go i
  in
  let rec last pat i acc =
    match index_from pat i with Some j -> last pat (j + 1) (Some j) | None -> acc
  in
  let asks = "SNAPSHOT ver=" in
  let first_ask = Option.bind (last "\x00DP2" mark None) (index_from asks) in
  Alcotest.(check (option string)) "the new connection's first fetch names version 0"
    (Some "0 ")
    (Option.map (fun i -> String.sub sent (i + String.length asks) 2) first_ask);
  Coordinator.shutdown coord

(* --- WIN and STATS are answered where the estimator lives ---------------- *)

let direct_stats port name =
  match direct_call port (P.Stats { session = name }) with
  | P.Stats_reply st -> st
  | r -> Alcotest.failf "direct STATS: %s" (P.render_response r)

let direct_win port name ~seconds ~at =
  match direct_call port (P.Win { session = name; seconds; at = Some at }) with
  | P.Estimate { value; _ } -> value
  | r -> Alcotest.failf "direct WIN: %s" (P.render_response r)

(* A sketch-regime session that keeps taking sets between reads, so no
   answer can come from a memo.  A WIN and a STATS through the coordinator
   each read less than 1 KiB from the worker, where even a windowed token of
   this session is about 10 KB; the WIN answer is the home's own [WIN … at=], bit for
   bit, and the STATS item count is the home's. *)
let test_forwarded_reads_ship_no_token () =
  let name = "live" in
  let workers = List.init 2 (fun n -> start_worker (170 + n) ~seed:(1900 + n)) in
  let ports = List.map (fun (s, _) -> Server.port s) workers in
  let port = List.nth ports (home name 2) in
  let io, read, _ = metered_io () in
  let coord =
    Coordinator.create ~io ~timeout:5.0 ~backoff:0.01
      ~workers:(List.map (fun p -> ("127.0.0.1", p)) ports)
      ~seed:171 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown coord;
      List.iter stop_worker workers;
      List.iteri (fun n _ -> rm_rf (spool (170 + n))) workers)
  @@ fun () ->
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:40.0);
  let gen = Rng.create ~seed:172 in
  let ingest ~ts =
    let boxes =
      Workload.Rectangles.uniform gen ~universe:1_000_000 ~dim:2 ~count:60 ~max_side:60_000
    in
    ignore (ok (Coordinator.add_batch coord ~ts ~name ~payloads:(List.map payload_of boxes)))
  in
  let metered f =
    let before = Atomic.get read in
    let r = f () in
    (r, Atomic.get read - before)
  in
  let small what bytes =
    Alcotest.(check bool) (Printf.sprintf "%s read %d bytes" what bytes) true (bytes < 1024)
  in
  List.iter (fun ts -> ingest ~ts) [ 10.0; 50.0; 100.0 ];
  let st = direct_stats port name in
  Alcotest.(check bool) "the session sketches" false st.P.exact;
  ingest ~ts:120.0;
  let (v, degraded, _), bytes =
    metered (fun () -> ok (Coordinator.win coord ~name ~seconds:60.0 ~at:(Some 130.0)))
  in
  small "a fresh WIN" bytes;
  Alcotest.(check bool) "WIN not degraded" false degraded;
  Alcotest.(check int64) "WIN is the home's own answer, bit for bit"
    (Int64.bits_of_float (direct_win port name ~seconds:60.0 ~at:130.0))
    (Int64.bits_of_float v);
  ingest ~ts:125.0;
  let st, bytes = metered (fun () -> ok (Coordinator.stats coord ~name)) in
  small "a fresh STATS" bytes;
  Alcotest.(check int) "STATS items are the home's" (direct_stats port name).P.items st.P.items;
  Alcotest.(check int) "every set counted" 300 st.P.items

(* At R = 2 the home loses the session behind the coordinator's back (a
   direct CLOSE).  The next WIN is refused there with UNKNOWN-SESSION: the
   peer answers fresh and the home is marked incomplete.  The STATS after
   it replaces the home from the peer's copy before it reads, so the home
   holds the peer's items again. *)
let test_forwarded_read_refused_by_home () =
  let name = "lost" in
  let workers = List.init 3 (fun n -> start_worker (180 + n) ~seed:(2000 + n)) in
  let ports = Array.of_list (List.map (fun (s, _) -> Server.port s) workers) in
  let h = home name 3 in
  let coord =
    Coordinator.create ~replicas:2 ~timeout:5.0 ~backoff:0.01
      ~workers:(Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports))
      ~seed:181 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown coord;
      List.iter stop_worker workers;
      List.iteri (fun n _ -> rm_rf (spool (180 + n))) workers)
  @@ fun () ->
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0);
  let boxes =
    Workload.Rectangles.uniform (Rng.create ~seed:182) ~universe:300 ~dim:2 ~count:30 ~max_side:6
  in
  ignore (ok (Coordinator.add_batch coord ~ts:100.0 ~name ~payloads:(List.map payload_of boxes)));
  Coordinator.flush coord;
  Alcotest.(check (list int)) "both replicas complete" [ 2 ]
    [ List.nth (Coordinator.shard_freshness coord) h ];
  (match direct_call ports.(h) (P.Close { session = name }) with
  | P.Ok_reply _ -> ()
  | r -> Alcotest.failf "direct CLOSE: %s" (P.render_response r));
  let v, degraded, stale = ok (Coordinator.win coord ~name ~seconds:60.0 ~at:(Some 130.0)) in
  Alcotest.(check bool) "WIN answers fresh" false degraded;
  Alcotest.(check (list int)) "no stale position" [] stale;
  Alcotest.(check (float 0.0)) "WIN answered by the peer, exactly" (truth boxes) v;
  Alcotest.(check (list int)) "the home is incomplete" [ 1 ]
    [ List.nth (Coordinator.shard_freshness coord) h ];
  let st = ok (Coordinator.stats coord ~name) in
  Alcotest.(check int) "STATS answers fresh" 30 st.P.items;
  Alcotest.(check (list int)) "the home was replaced" [ 2 ]
    [ List.nth (Coordinator.shard_freshness coord) h ];
  Alcotest.(check int) "the home holds the peer's items"
    (direct_stats ports.((h + 1) mod 3) name).P.items
    (direct_stats ports.(h) name).P.items

(* An ingest frame refused at its ack, at R = 1 and R = 2.  The home loses
   the session behind the coordinator's back (a direct CLOSE) after an EST
   has stored the session's last good token, and the next ADDB's ack
   answers UNKNOWN-SESSION.  The refused sets are parked, neither counted
   delivered nor counted as rejects: at R = 2 the peer takes them, at R = 1
   they wait until the home is replaced from the last good token.  Either
   way the settled answer counts every acknowledged set, and the home is
   complete again. *)
let test_refused_ingest_parks () =
  let name = "refused" in
  List.iter
    (fun replicas ->
      let base = 230 + (10 * replicas) in
      let workers = List.init 3 (fun n -> start_worker (base + n) ~seed:(2300 + n)) in
      let ports = Array.of_list (List.map (fun (s, _) -> Server.port s) workers) in
      let h = home name 3 in
      let coord =
        Coordinator.create ~replicas ~timeout:5.0 ~backoff:0.01
          ~workers:(Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports))
          ~seed:231 ()
      in
      let what = Printf.sprintf "R=%d: " replicas in
      Fun.protect
        ~finally:(fun () ->
          Coordinator.shutdown coord;
          List.iter stop_worker workers;
          List.iteri (fun n _ -> rm_rf (spool (base + n))) workers)
      @@ fun () ->
      ok
        (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
           ~log2_universe:17.0);
      let gen = Rng.create ~seed:232 in
      let band () = Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:20 ~max_side:6 in
      let first = band () and refused = band () in
      ignore (ok (Coordinator.add_batch coord ~name ~payloads:(List.map payload_of first)));
      let est, _, _ = ok (Coordinator.estimate coord ~name) in
      Alcotest.(check (float 0.0)) (what ^ "exact before the loss") (truth first) est;
      (match direct_call ports.(h) (P.Close { session = name }) with
      | P.Ok_reply _ -> ()
      | r -> Alcotest.failf "direct CLOSE: %s" (P.render_response r));
      ignore (ok (Coordinator.add_batch coord ~name ~payloads:(List.map payload_of refused)));
      Coordinator.flush coord;
      Alcotest.(check (float 0.0)) (what ^ "every acknowledged set") (truth (first @ refused))
        (settled_estimate coord ~name);
      Alcotest.(check int) (what ^ "a refusal is not a reject") 0
        (ok (Coordinator.stats coord ~name)).P.parse_rejects;
      Alcotest.(check int) (what ^ "the home was replaced") replicas
        (List.nth (Coordinator.shard_freshness coord) h);
      Alcotest.(check int) (what ^ "the home holds every set")
        (if replicas = 1 then 40 else (direct_stats ports.((h + 1) mod 3) name).P.items)
        (direct_stats ports.(h) name).P.items)
    [ 1; 2 ]

(* A refused dial quarantines at once: the quarantine's backoff is the one
   retry schedule, and nothing sleeps on the caller's thread (on a front
   door, every client's).  R = 2 over a live worker and a port that
   refuses connections: once that replica's quarantine has run out, an ADD
   dials it again and returns within 0.1 s at the default backoff. *)
let test_refused_dial_does_not_sleep () =
  let a = start_worker 260 ~seed:2600 in
  let refusing =
    let srv, p = Test_failover.raw_listener ~backlog:1 () in
    Unix.close srv;
    p
  in
  let coord =
    Coordinator.create ~replicas:2
      ~workers:[ ("127.0.0.1", Server.port (fst a)); ("127.0.0.1", refusing) ]
      ~seed:261 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown coord;
      stop_worker a;
      rm_rf (spool 260))
  @@ fun () ->
  let name = "refusing" in
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0);
  let boxes =
    Workload.Rectangles.uniform (Rng.create ~seed:262) ~universe:300 ~dim:2 ~count:3 ~max_side:6
  in
  List.iter
    (fun b ->
      (* the first quarantine lasts at most 2.5 backoffs, each later one
         twice the last; 0.3 s outlasts the second *)
      Thread.delay 0.3;
      let t0 = Unix.gettimeofday () in
      ok (Coordinator.add coord ~name ~payload:(payload_of b));
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) (Printf.sprintf "ADD returns in %.3f s < 0.1 s" dt) true (dt < 0.1))
    (List.filteri (fun i _ -> i < 2) boxes);
  ok (Coordinator.add coord ~name ~payload:(payload_of (List.nth boxes 2)));
  Alcotest.(check (float 0.0)) "the live replica counts every set" (truth boxes)
    (settled_estimate coord ~name)

(* STATS lays the coordinator's own figures over a replica's: the rejects
   its acks listed (a payload sent straight to a worker is not one of
   them) and the value of its last EST (no EST reaches a worker, whose own
   figure stays 0).  With the home stopped, at R = 2 the peer answers, so
   the items include the sets ingested since; at R = 1 the last good token
   answers, so they do not. *)
let test_stats_overlay_and_fallback () =
  let name = "ov" in
  List.iter
    (fun replicas ->
      let base = 190 + (10 * replicas) in
      let workers = Array.init 3 (fun n -> start_worker (base + n) ~seed:(2100 + n)) in
      let ports = Array.map (fun (s, _) -> Server.port s) workers in
      let h = home name 3 in
      let coord =
        Coordinator.create ~replicas ~timeout:2.0 ~backoff:0.01
          ~workers:(Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports))
          ~seed:191 ()
      in
      let what = Printf.sprintf "R=%d: " replicas in
      Fun.protect
        ~finally:(fun () ->
          Coordinator.shutdown coord;
          Array.iteri (fun i w -> if i <> h then stop_worker w) workers;
          Array.iteri (fun n _ -> rm_rf (spool (base + n))) workers)
      @@ fun () ->
      ok
        (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
           ~log2_universe:17.0);
      let gen = Rng.create ~seed:192 in
      let band () = Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count:20 ~max_side:6 in
      let first = band () and later = band () in
      ignore
        (ok (Coordinator.add_batch coord ~name ~payloads:("not a box" :: List.map payload_of first)));
      let est, _, _ = ok (Coordinator.estimate coord ~name) in
      Alcotest.(check (float 0.0)) (what ^ "EST exact") (truth first) est;
      (match direct_call ports.((h + 1) mod 3) (P.Add { session = name; payload = "bogus"; ts = None }) with
      | P.Error_reply _ -> ()
      | r -> Alcotest.failf "direct bad ADD: %s" (P.render_response r));
      stop_worker workers.(h);
      (* an EST notices the stop, so [later] is not routed to the home *)
      let est, degraded, _ = ok (Coordinator.estimate coord ~name) in
      Alcotest.(check bool) (what ^ "EST degraded iff no replica is left") (replicas = 1) degraded;
      ignore (ok (Coordinator.add_batch coord ~name ~payloads:(List.map payload_of later)));
      let st = ok (Coordinator.stats coord ~name) in
      Alcotest.(check (float 0.0)) (what ^ "last_estimate is the coordinator's EST") est
        st.P.last_estimate;
      Alcotest.(check int) (what ^ "parse_rejects is the coordinator's count") 1 st.P.parse_rejects;
      Alcotest.(check int)
        (what ^ if replicas = 2 then "the peer answers" else "the last good token answers")
        (if replicas = 2 then 40 else 20)
        st.P.items)
    [ 2; 1 ]

(* --- the front door's shard_fresh ---------------------------------------- *)

(* The first name in a fixed list that is homed at ring position [pos]. *)
let name_homed_at pos n =
  let rec go i =
    let name = Printf.sprintf "h%d" i in
    if home name n = pos then name else go (i + 1)
  in
  go 0

(* Bare STATS through a Frontend over a 3-worker R=2 coordinator: one
   fresh-replica count per ring position, each 2 on a healthy pool.  Once
   the coordinator has seen a worker die, the two positions whose windows
   hold it report 1. *)
let test_frontend_shard_fresh () =
  let n = 3 in
  let workers = List.init n (fun k -> start_worker (110 + k) ~seed:(1100 + k)) in
  let addrs = List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers in
  (* window 1: every shipped frame's ack is read at once, so the first ADDB
     that reaches the dead worker sees it gone *)
  let coord =
    Coordinator.create ~replicas:2 ~timeout:5.0 ~backoff:0.01 ~window:1 ~workers:addrs
      ~seed:111 ()
  in
  let fe = Frontend.create ~port:0 ~dispatch:(Coordinator.dispatch coord) () in
  let th = Frontend.start fe in
  let c = Test_server.connect (Frontend.port fe) in
  let shard_fresh what =
    let line = Test_server.rpc c "STATS" in
    match P.parse_response line with
    | Ok (P.Server_stats_reply st) -> st.P.shard_fresh
    | _ -> Alcotest.failf "%s: STATS answered %s" what line
  in
  let names = List.init n (fun pos -> name_homed_at pos n) in
  List.iter
    (fun name ->
      Alcotest.(check string) "open" ("OK opened " ^ name)
        (Test_server.rpc c (Printf.sprintf "OPEN %s rect 0.3 0.2 17" name)))
    names;
  Alcotest.(check (list int)) "healthy pool" [ 2; 2; 2 ] (shard_fresh "healthy");
  let victim = 1 in
  stop_worker (List.nth workers victim);
  List.iter
    (fun name ->
      Alcotest.(check string) ("ADDB " ^ name) "OKB 1"
        (Test_server.rpc c (Printf.sprintf "ADDB %s 1 0%%209%%200%%209" name)))
    names;
  let expected =
    List.init n (fun pos -> if pos = victim || (pos + 1) mod n = victim then 1 else 2)
  in
  Alcotest.(check (list int)) "the dead worker's two windows" expected
    (shard_fresh "after the kill");
  Test_server.disconnect c;
  Frontend.request_stop fe;
  Thread.join th;
  Coordinator.shutdown coord;
  List.iteri (fun k w -> if k <> victim then stop_worker w) workers;
  List.iteri (fun k _ -> rm_rf (spool (110 + k))) workers

(* A connection blip over a worker that lost a session.  R = 2 over two
   workers.  The home loses the session behind the coordinator's back (a
   direct CLOSE), then a partition of the home for one EST breaks the
   coordinator's connection to it while the process lives on.  The
   reconnect re-opens every session: the home's OPEN answers OK, so its
   copy is incomplete and is replaced from its peer before the next set is
   placed.  The home then counts every acknowledged set itself. *)
let test_blip_reopens_and_repairs () =
  let name = name_homed_at 0 2 in
  let workers = List.init 2 (fun n -> start_worker (270 + n) ~seed:(2700 + n)) in
  let ports = Array.of_list (List.map (fun (s, _) -> Server.port s) workers) in
  let chaos = Chaos.create (Chaos.config ~seed:271 ()) in
  let io =
    {
      Rpc.io_read = Chaos.wrap_read chaos Unix.read;
      io_write = Chaos.wrap_write chaos Unix.write_substring;
    }
  in
  let coord =
    Coordinator.create ~io ~replicas:2 ~timeout:0.3 ~backoff:0.01
      ~workers:(Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports))
      ~seed:272 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown coord;
      List.iter stop_worker workers;
      List.iteri (fun n _ -> rm_rf (spool (270 + n))) workers)
  @@ fun () ->
  ok
    (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
       ~log2_universe:17.0);
  let gen = Rng.create ~seed:273 in
  let band count = Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count ~max_side:6 in
  let first = band 20 and last = band 1 in
  ignore (ok (Coordinator.add_batch coord ~name ~payloads:(List.map payload_of first)));
  Coordinator.flush coord;
  (match direct_call ports.(0) (P.Close { session = name }) with
  | P.Ok_reply _ -> ()
  | r -> Alcotest.failf "direct CLOSE: %s" (P.render_response r));
  Chaos.partition chaos [ ports.(0) ];
  ignore (Coordinator.estimate coord ~name);
  Alcotest.(check int) "the partition broke the home's connection" 1
    (Coordinator.live_workers coord);
  Chaos.heal chaos;
  Thread.delay 0.1 (* past the home's quarantine *);
  List.iter (fun b -> ok (Coordinator.add coord ~name ~payload:(payload_of b))) last;
  Coordinator.flush coord;
  Alcotest.(check int) "the home counts every acknowledged set"
    (List.length (first @ last))
    (direct_stats ports.(0) name).P.items;
  Alcotest.(check (float 0.0)) "the answer counts every set" (truth (first @ last))
    (settled_estimate coord ~name)

let suite =
  [
    Alcotest.test_case "scatter/gather with mid-stream worker loss" `Quick
      test_scatter_gather_failover;
    Alcotest.test_case "batched scatter loses no acked set on worker kill" `Quick
      test_batched_kill_no_loss;
    Alcotest.test_case "WIN agrees across three workers and honors the cutoff when degraded"
      `Quick test_win_cluster_kill;
    Alcotest.test_case "slow workers share one gather deadline" `Quick
      test_slow_workers_share_one_deadline;
    Alcotest.test_case "a hung home at R=2 leaves its peer time to answer fresh" `Quick
      test_slow_home_peer_answers;
    Alcotest.test_case "re-routing a dead worker's window waits for a read that dials each worker once" `Quick
      test_reroute_dials_once;
    Alcotest.test_case "an outage at R=1 waits for the home and refuses past the window" `Quick
      test_outage_waits_for_the_home;
    Alcotest.test_case "a home that comes back empty gets the waiting window" `Quick
      test_empty_home_gets_the_waiting_window;
    Alcotest.test_case "EXPR over a live cluster with worker loss" `Quick
      test_expr_cluster;
    Alcotest.test_case "sketch-regime EXPR on the coordinator" `Quick
      test_sketch_expr_coordinator;
    Alcotest.test_case "sketch-regime EXPR on one registry" `Quick test_sketch_expr_registry;
    Alcotest.test_case "frontend speaks the full protocol" `Quick
      test_frontend_protocol;
    Alcotest.test_case "kill -9 mid-stream recovers from the WAL" `Quick
      test_kill9_wal_recovery;
    Alcotest.test_case "acknowledged sets reach the workers without a read" `Quick
      test_add_batch_ships_without_read;
    Alcotest.test_case "a gather after a big-box backlog is fresh" `Quick
      test_backlog_gather_is_fresh;
    Alcotest.test_case "a replica that missed payloads is replaced at reconnect" `Quick
      test_replacement_at_reconnect;
    Alcotest.test_case "pipelined ingest into journaled workers acks promptly" `Quick
      test_wal_ingest_acks_promptly;
    Alcotest.test_case "an idle gather ships no token" `Quick test_idle_gather_ships_no_token;
    Alcotest.test_case "a mutation behind the coordinator's back ships a token" `Quick
      test_direct_mutation_ships_token;
    Alcotest.test_case "a restarted worker is never asked a dead connection's version" `Quick
      test_restart_forgets_versions;
    Alcotest.test_case "the front door reports each ring position's fresh replicas" `Quick
      test_frontend_shard_fresh;
    Alcotest.test_case "a live WIN and STATS ship no token" `Quick
      test_forwarded_reads_ship_no_token;
    Alcotest.test_case "a read refused by the home is answered by its peer" `Quick
      test_forwarded_read_refused_by_home;
    Alcotest.test_case "an ingest frame refused at its ack parks, and the home is replaced" `Quick
      test_refused_ingest_parks;
    Alcotest.test_case "a refused dial quarantines without sleeping" `Quick
      test_refused_dial_does_not_sleep;
    Alcotest.test_case "STATS lays the coordinator's figures over a replica's or the last good token's"
      `Quick test_stats_overlay_and_fallback;
    Alcotest.test_case "a blip re-opens, and a worker that lost a session is replaced at once"
      `Quick test_blip_reopens_and_repairs;
  ]
