(* Front-door tests: clients racing on concurrent domains into the one
   event loop must get the serial answer (final estimates bitwise-equal to
   a serial replay, for disjoint and for shared sessions), the bare STATS
   verb must report live process figures, and the connection cap must shed
   exactly past its bound on both front doors. *)

module Server = Delphic_server.Server
module Registry = Delphic_server.Registry
module Frontend = Delphic_cluster.Frontend
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

(* Clients speak the v1 text front door, so the loop is exercised through
   the same parse/render path humans use. *)
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
   seed, so a concurrent run and its serial replay build identical
   sketches.  With [concurrent] each session gets its own client domain
   hammering the server at once; serially everything flows through the
   control connection in list order. *)
let run_ops ~concurrent ops =
  let spool = fresh_dir "eq" in
  let s = Server.create ~port:0 ~spool ~seed:913 () in
  let th = Server.start s in
  let port = Server.port s in
  let ctl = conn port in
  List.iter (fun (name, _) -> open_session ctl name) ops;
  (if concurrent then begin
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

(* qcheck: random disjoint-session streams, one client domain per session
   vs serial replay. *)
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
  QCheck.Test.make ~count:3 ~name:"concurrent disjoint sessions = serial replay"
    arb (fun per_session ->
      let payload (a, b, c, d) =
        Printf.sprintf "%d %d %d %d" (min a b) (max a b) (min c d) (max c d)
      in
      let ops =
        List.mapi
          (fun i rects -> (Printf.sprintf "d%d" i, List.map payload rects))
          per_session
      in
      run_ops ~concurrent:true ops = run_ops ~concurrent:false ops)

(* Shared session, exact regime: four clients race disjoint slices of
   distinct points into ONE session.  Below the adaptive estimator's exact
   capacity the state is a plain entry set, so the union cardinality — and
   the rendered EST — cannot depend on arrival interleaving. *)
let test_shared_session_equivalence () =
  let points = List.init 32 (fun i -> Printf.sprintf "%d %d %d %d" i i i i) in
  let serial = run_ops ~concurrent:false [ ("shared", points) ] in
  let slices = List.init 4 (fun c -> List.filteri (fun i _ -> i mod 4 = c) points) in
  let spool = fresh_dir "shared" in
  let s = Server.create ~port:0 ~spool ~seed:913 () in
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
  let s = Server.create ~port:0 ~spool ~seed:7 () in
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
    Alcotest.(check int) "one loop" 1 (List.length st.P.dispatched);
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

(* The connection cap, run against either front door.  [start ~max_conns]
   serves on a fresh port and returns it with a stop function. *)
let check_conn_cap start =
  let port, stop = start ~max_conns:2 in
  let ping c =
    match call c P.Ping with
    | P.Pong -> ()
    | r -> Alcotest.failf "PING: %s" (P.render_response r)
  in
  (* a reply on each proves the loop has registered both *)
  let c1 = conn port and c2 = conn port in
  ping c1;
  ping c2;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (match Delphic_server.Evloop.wait_fd fd ~write:false ~timeout:5.0 with
  | `Timeout -> Alcotest.fail "third connection was not closed"
  | `Ready -> (
    match Unix.read fd (Bytes.create 1) 0 1 with
    | 0 -> ()
    | n -> Alcotest.failf "third connection read %d bytes, expected EOF" n
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()));
  Unix.close fd;
  let stats c =
    let line = Test_server.rpc c "STATS" in
    match P.parse_response line with
    | Ok (P.Server_stats_reply st) -> (line, st)
    | _ -> Alcotest.failf "STATS: %s" line
  in
  let line, st = stats c1 in
  Alcotest.(check int) "shed" 1 st.P.shed;
  Alcotest.(check int) "conns" 2 st.P.conns;
  Alcotest.(check bool)
    (Printf.sprintf "%S reports domains=1" line)
    true
    (List.mem "domains=1" (String.split_on_char ' ' line));
  (* once the loop has seen a client go, a new one is admitted *)
  Test_server.disconnect c2;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (snd (stats c1)).P.conns <> 1 do
    if Unix.gettimeofday () > deadline then Alcotest.fail "disconnect never observed";
    Thread.delay 0.005
  done;
  let c4 = conn port in
  ping c4;
  let _, st = stats c1 in
  Alcotest.(check int) "conns after readmission" 2 st.P.conns;
  Alcotest.(check int) "no further shed" 1 st.P.shed;
  Test_server.disconnect c4;
  Test_server.disconnect c1;
  stop ()

let test_conn_cap_server () =
  check_conn_cap (fun ~max_conns ->
      let s = Server.create ~port:0 ~spool:(fresh_dir "cap") ~seed:7 ~max_conns () in
      let th = Server.start s in
      ( Server.port s,
        fun () ->
          Server.request_stop s;
          Thread.join th ))

let test_conn_cap_frontend () =
  check_conn_cap (fun ~max_conns ->
      let reg = Registry.create ~seed:7 () in
      let fe = Frontend.create ~port:0 ~max_conns ~dispatch:(Registry.dispatch reg) () in
      let th = Frontend.start fe in
      ( Frontend.port fe,
        fun () ->
          Frontend.request_stop fe;
          Thread.join th ))

let suite =
  [
    Alcotest.test_case "stats-verb" `Quick test_stats_verb;
    Alcotest.test_case "connection cap (server)" `Quick test_conn_cap_server;
    Alcotest.test_case "connection cap (frontend)" `Quick test_conn_cap_frontend;
    Alcotest.test_case "shared-session-equivalence" `Quick
      test_shared_session_equivalence;
    QCheck_alcotest.to_alcotest prop_disjoint_equivalence;
  ]
