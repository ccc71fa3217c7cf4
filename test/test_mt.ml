(* Multicore server tests: domain-sharded event loops must be invisible to
   clients (final estimates bitwise-equal to a serial single-domain replay,
   for disjoint and for shared sessions), and the bare STATS verb must
   report live process figures. *)

module Server = Delphic_server.Server
module Evgroup = Delphic_server.Evgroup
module P = Delphic_server.Protocol

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "delphic-mt-%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    let rec rm path =
      if Sys.file_exists path then
        if Sys.is_directory path then begin
          Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
    in
    rm dir;
    dir

(* Clients speak the v1 text front door, so the domain-sharded loops are
   exercised through the same parse/render path humans use. *)
let conn = Test_server.connect

let call c req =
  match P.parse_response (Test_server.rpc c (P.render_request req)) with
  | Ok resp -> resp
  | Error msg -> Alcotest.failf "%s: %s" (P.render_request req) msg

let open_session c name =
  match
    call c
      (P.Open
         {
           session = name;
           family = P.Rect;
           epsilon = 0.2;
           delta = 0.2;
           log2_universe = 40.0;
         })
  with
  | P.Ok_reply _ -> ()
  | r -> Alcotest.failf "OPEN %s: %s" name (P.render_response r)

let add c session payload =
  match call c (P.Add { session; payload; ts = Some 1.0 }) with
  | P.Ok_reply _ -> ()
  | r -> Alcotest.failf "ADD %s: %s" session (P.render_response r)

let est c session =
  P.render_response (call c (P.Est { session }))

(* Run [ops] (session name, payload list) against a fresh server and return
   the rendered EST reply per session.  Sessions are always opened serially
   from one control connection — OPEN order pins each session's derived
   seed, so a multi-domain run and its serial replay build identical
   sketches.  With [domains > 1] each session gets its own client domain
   hammering concurrently; serially everything flows through the control
   connection in list order. *)
let run_ops ~domains ops =
  let spool = fresh_dir "eq" in
  let s = Server.create ~port:0 ~spool ~seed:913 ~domains () in
  let th = Server.start s in
  let port = Server.port s in
  let ctl = conn port in
  List.iter (fun (name, _) -> open_session ctl name) ops;
  (if domains > 1 then begin
     let doms =
       List.map
         (fun (name, payloads) ->
           Domain.spawn (fun () ->
               let c = conn port in
               List.iter (add c name) payloads;
               Test_server.disconnect c))
         ops
     in
     List.iter Domain.join doms
   end
   else List.iter (fun (name, payloads) -> List.iter (add ctl name) payloads) ops);
  let ests = List.map (fun (name, _) -> est ctl name) ops in
  Test_server.disconnect ctl;
  Server.request_stop s;
  Thread.join th;
  ests

(* qcheck: random disjoint-session streams, 4 domains vs serial replay. *)
let prop_disjoint_equivalence =
  let rect =
    QCheck.quad
      (QCheck.int_range 0 999) (QCheck.int_range 0 999)
      (QCheck.int_range 0 999) (QCheck.int_range 0 999)
  in
  let arb =
    QCheck.list_of_size (QCheck.Gen.return 4)
      (QCheck.list_of_size (QCheck.Gen.int_range 1 25) rect)
  in
  QCheck.Test.make ~count:3 ~name:"4-domain disjoint sessions = serial replay"
    arb (fun per_session ->
      let payload (a, b, c, d) =
        Printf.sprintf "%d %d %d %d" (min a b) (max a b) (min c d) (max c d)
      in
      let ops =
        List.mapi
          (fun i rects -> (Printf.sprintf "d%d" i, List.map payload rects))
          per_session
      in
      run_ops ~domains:4 ops = run_ops ~domains:1 ops)

(* Shared session, exact regime: four clients race disjoint slices of
   distinct points into ONE session.  Below the adaptive estimator's exact
   capacity the state is a plain entry set, so the union cardinality — and
   the rendered EST — cannot depend on arrival interleaving. *)
let test_shared_session_equivalence () =
  let points = List.init 32 (fun i -> Printf.sprintf "%d %d %d %d" i i i i) in
  let serial = run_ops ~domains:1 [ ("shared", points) ] in
  let slices = List.init 4 (fun c -> List.filteri (fun i _ -> i mod 4 = c) points) in
  let spool = fresh_dir "shared" in
  let s = Server.create ~port:0 ~spool ~seed:913 ~domains:4 () in
  let th = Server.start s in
  let port = Server.port s in
  let ctl = conn port in
  open_session ctl "shared";
  let doms =
    List.map
      (fun slice ->
        Domain.spawn (fun () ->
            let c = conn port in
            List.iter (add c "shared") slice;
            Test_server.disconnect c))
      slices
  in
  List.iter Domain.join doms;
  let concurrent = est ctl "shared" in
  Test_server.disconnect ctl;
  Server.request_stop s;
  Thread.join th;
  Alcotest.(check (list string)) "EST equal" serial [ concurrent ]

let test_stats_verb () =
  let spool = fresh_dir "stats" in
  let s = Server.create ~port:0 ~spool ~seed:7 ~domains:2 () in
  let th = Server.start s in
  let port = Server.port s in
  let ctl = conn port in
  open_session ctl "s";
  add ctl "s" "1 2 1 2";
  (* per-session STATS keeps its old meaning *)
  (match call ctl (P.Stats { session = "s" }) with
  | P.Stats_reply _ -> ()
  | r -> Alcotest.failf "STATS s: %s" (P.render_response r));
  (match call ctl P.Server_stats with
  | P.Server_stats_reply st ->
    Alcotest.(check int) "domains" 2 (List.length st.P.dispatched);
    Alcotest.(check bool) "conns >= 1" true (st.P.conns >= 1);
    Alcotest.(check bool) "no sheds" true (st.P.shed = 0);
    Alcotest.(check bool)
      "dispatch counted" true
      (List.fold_left ( + ) 0 st.P.dispatched >= 3)
  | r -> Alcotest.failf "STATS: %s" (P.render_response r));
  (* the rendered form survives a parse round trip (what the CLI and the
     coordinator passthrough rely on) *)
  let rendered =
    P.render_response
      (P.Server_stats_reply
         {
           P.conns = 3;
           shed = 1;
           dispatched = [ 4; 0; 2 ];
           wal_queue = 5;
           wal_last_group = 16;
           wal_groups = 9;
           shard_fresh = [];
         })
  in
  (match P.parse_response rendered with
  | Ok (P.Server_stats_reply st) ->
    Alcotest.(check (list int)) "dispatched" [ 4; 0; 2 ] st.P.dispatched;
    Alcotest.(check int) "wal_groups" 9 st.P.wal_groups
  | Ok r -> Alcotest.failf "roundtrip: %s" (P.render_response r)
  | Error msg -> Alcotest.failf "roundtrip: %s" msg);
  Test_server.disconnect ctl;
  Server.request_stop s;
  Thread.join th

(* Round-robin handoff: with 4 domains and a handful of connections each
   issuing a request, every event loop must end up with work. *)
let test_round_robin_dispatch () =
  let spool = fresh_dir "rr" in
  let s = Server.create ~port:0 ~spool ~seed:7 ~domains:4 () in
  let th = Server.start s in
  let port = Server.port s in
  let ctl = conn port in
  let clients = List.init 8 (fun _ -> conn port) in
  List.iter
    (fun c ->
      match call c P.Ping with
      | P.Pong -> ()
      | r -> Alcotest.failf "PING: %s" (P.render_response r))
    clients;
  (match call ctl P.Server_stats with
  | P.Server_stats_reply st ->
    Alcotest.(check int) "domains" 4 (List.length st.P.dispatched);
    Alcotest.(check bool) "live conns" true (st.P.conns >= 9);
    List.iteri
      (fun i n ->
        Alcotest.(check bool)
          (Printf.sprintf "domain %d dispatched" i)
          true (n >= 1))
      st.P.dispatched
  | r -> Alcotest.failf "STATS: %s" (P.render_response r));
  List.iter Test_server.disconnect clients;
  Test_server.disconnect ctl;
  Server.request_stop s;
  Thread.join th

let test_default_domains () =
  Alcotest.(check bool) "at least one" true (Evgroup.default_domains () >= 1);
  Alcotest.(check bool) "capped at 8" true (Evgroup.default_domains () <= 8)

let suite =
  [
    Alcotest.test_case "stats-verb" `Quick test_stats_verb;
    Alcotest.test_case "round-robin-dispatch" `Quick test_round_robin_dispatch;
    Alcotest.test_case "default-domains" `Quick test_default_domains;
    Alcotest.test_case "shared-session-equivalence" `Quick
      test_shared_session_equivalence;
    QCheck_alcotest.to_alcotest prop_disjoint_equivalence;
  ]
