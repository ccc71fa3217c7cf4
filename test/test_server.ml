(* Loopback end-to-end test of the estimation service: a real socket, a real
   accept loop, and the full durability cycle — serve, stream, stop (spooling
   to disk), restart from the spool, resume the stream. *)

module Server = Delphic_server.Server
module Rng = Delphic_util.Rng
module Bigint = Delphic_util.Bigint
module Rectangle = Delphic_sets.Rectangle
module Exact = Delphic_sets.Exact
module Workload = Delphic_stream.Workload

let spool_dir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "delphic-test-spool-%d" (Unix.getpid ()))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let rpc (_, ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let disconnect (fd, _, _) = try Unix.close fd with Unix.Unix_error _ -> ()

let est_of reply =
  match String.split_on_char ' ' reply with
  | [ "EST"; v ] -> float_of_string v
  | _ -> Alcotest.failf "expected EST reply, got %S" reply

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let add_line box =
  let lo = Rectangle.lo box and hi = Rectangle.hi box in
  let b = Buffer.create 32 in
  Buffer.add_string b "ADD e2e";
  Array.iteri
    (fun i l ->
      Buffer.add_string b (Printf.sprintf " %d %d" l hi.(i)))
    lo;
  Buffer.contents b

let check_close est truth =
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f within tolerance of %.0f" est truth)
    true
    (Float.abs (est -. truth) <= 0.3 *. truth)

let test_serve_stop_restart () =
  rm_rf spool_dir;
  let gen = Rng.create ~seed:4242 in
  let first =
    Workload.Rectangles.uniform gen ~universe:100_000 ~dim:2 ~count:120
      ~max_side:400
  in
  let rest =
    Workload.Rectangles.uniform gen ~universe:100_000 ~dim:2 ~count:40
      ~max_side:400
  in
  let truth boxes = Bigint.to_float (Exact.rectangle_union boxes) in

  (* first server: open a session and stream the first batch *)
  let s1 = Server.create ~port:0 ~spool:spool_dir ~seed:42 () in
  Alcotest.(check (list (pair string (result unit string))))
    "nothing to restore" [] (Server.restored s1);
  let th1 = Server.start s1 in
  let c = connect (Server.port s1) in
  Alcotest.(check string) "ping" "PONG" (rpc c "PING");
  Alcotest.(check string) "open" "OK opened e2e" (rpc c "OPEN e2e rect 0.2 0.1 40");
  List.iter (fun b -> Alcotest.(check string) "add" "OK" (rpc c (add_line b))) first;
  let bad = rpc c "ADD e2e one two three four" in
  Alcotest.(check bool)
    (Printf.sprintf "bad line rejected (%s)" bad)
    true
    (starts_with "ERR PARSE" bad);
  check_close (est_of (rpc c "EST e2e")) (truth first);
  let stats = rpc c "STATS e2e" in
  Alcotest.(check bool)
    (Printf.sprintf "stats after rejects (%s)" stats)
    true
    (starts_with "STATS family=rect items=120 " stats);
  disconnect c;

  (* graceful stop spools the session *)
  Server.request_stop s1;
  Thread.join th1;
  Alcotest.(check bool) "spool file written" true
    (Sys.file_exists (Filename.concat spool_dir "e2e.snap"));

  (* second server restores from the spool and resumes the stream *)
  let s2 = Server.create ~port:0 ~spool:spool_dir ~seed:977 () in
  Alcotest.(check (list (pair string (result unit string))))
    "restored e2e" [ ("e2e", Ok ()) ] (Server.restored s2);
  Alcotest.(check bool) "spool file consumed" false
    (Sys.file_exists (Filename.concat spool_dir "e2e.snap"));
  let th2 = Server.start s2 in
  let c2 = connect (Server.port s2) in
  check_close (est_of (rpc c2 "EST e2e")) (truth first);
  let stats2 = rpc c2 "STATS e2e" in
  Alcotest.(check bool)
    (Printf.sprintf "items survive the restart (%s)" stats2)
    true
    (starts_with "STATS family=rect items=120 " stats2);
  (* the restored session still enforces the pinned dimension *)
  Alcotest.(check bool) "dim still pinned" true
    (starts_with "ERR PARSE" (rpc c2 "ADD e2e 0 1 0 1 0 1"));
  List.iter (fun b -> ignore (rpc c2 (add_line b))) rest;
  check_close (est_of (rpc c2 "EST e2e")) (truth (first @ rest));
  disconnect c2;
  Server.request_stop s2;
  Thread.join th2;
  Alcotest.(check bool) "spooled again" true
    (Sys.file_exists (Filename.concat spool_dir "e2e.snap"));
  rm_rf spool_dir

let test_concurrent_sessions () =
  rm_rf spool_dir;
  let s = Server.create ~port:0 ~spool:spool_dir ~seed:7 () in
  let th = Server.start s in
  let a = connect (Server.port s) and b = connect (Server.port s) in
  Alcotest.(check string) "open a" "OK opened a" (rpc a "OPEN a rect 0.3 0.2 20");
  Alcotest.(check string) "open b" "OK opened b" (rpc b "OPEN b dnf:10 0.3 0.2 10");
  (* interleave the two sessions over two connections *)
  Alcotest.(check string) "a add" "OK" (rpc a "ADD a 0 9 0 9");
  Alcotest.(check string) "b add" "OK" (rpc b "ADD b 1 -3");
  Alcotest.(check string) "a add 2" "OK" (rpc b "ADD a 5 14 0 9");
  Alcotest.(check string) "exact estimate a" "EST 150" (rpc a "EST a");
  Alcotest.(check string) "duplicate open refused"
    "ERR SESSION-EXISTS a" (rpc b "OPEN a rect 0.3 0.2 20");
  Alcotest.(check string) "unknown session"
    "ERR UNKNOWN-SESSION ghost" (rpc a "EST ghost");
  Alcotest.(check string) "close b" "OK closed b" (rpc b "CLOSE b");
  disconnect a;
  disconnect b;
  Server.request_stop s;
  Thread.join th;
  Alcotest.(check bool) "only a spooled" true
    (Sys.file_exists (Filename.concat spool_dir "a.snap")
    && not (Sys.file_exists (Filename.concat spool_dir "b.snap")));
  rm_rf spool_dir

(* --- wire protocol v2 interop: a hand-rolled binary client against the
   same server a v1 text client is using, auto-detected per connection --- *)

module P = Delphic_server.Protocol
module Frame = Delphic_server.Frame

type v2c = { v2fd : Unix.file_descr; mutable v2pend : string }

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let v2_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  write_all fd Frame.preamble;
  { v2fd = fd; v2pend = "" }

let rec v2_recv c =
  let n = String.length c.v2pend in
  if n >= 8 && n >= 8 + Frame.read_be32 c.v2pend 0 then begin
    let len = Frame.read_be32 c.v2pend 0 in
    let crc = Frame.read_be32 c.v2pend 4 in
    let body = String.sub c.v2pend 8 len in
    c.v2pend <- String.sub c.v2pend (8 + len) (n - 8 - len);
    Alcotest.(check int) "reply frame CRC" (Frame.crc32 body) crc;
    body
  end
  else begin
    let buf = Bytes.create 4096 in
    match Unix.read c.v2fd buf 0 4096 with
    | 0 -> Alcotest.fail "v2 peer closed mid-reply"
    | k ->
      c.v2pend <- c.v2pend ^ Bytes.sub_string buf 0 k;
      v2_recv c
  end

let v2_call c req =
  write_all c.v2fd (Frame.frame (P.encode_request_v2 req));
  v2_recv c

let v2_close c = try Unix.close c.v2fd with Unix.Unix_error _ -> ()

let test_v1_v2_interop () =
  rm_rf spool_dir;
  let s = Server.create ~port:0 ~spool:spool_dir ~seed:31 () in
  let th = Server.start s in
  let port = Server.port s in

  (* one connection per protocol, same session, interleaved *)
  let v1 = connect port and v2 = v2_connect port in
  Alcotest.(check string) "v2 open" "OK opened mix"
    (v2_call v2
       (P.Open { session = "mix"; family = P.Rect; epsilon = 0.3; delta = 0.2;
                 log2_universe = 20.0 }));
  Alcotest.(check string) "v2 binary ADDB" "OKB 2"
    (v2_call v2
       (P.Add_batch { session = "mix"; payloads = [ "0 9 0 9"; "5 14 0 9" ]; ts = None }));
  Alcotest.(check string) "v1 sees v2's inserts" "EST 150" (rpc v1 "EST mix");
  Alcotest.(check string) "v1 add" "OK" (rpc v1 "ADD mix 0 9 10 19");
  Alcotest.(check string) "v2 sees v1's insert" "EST 250"
    (v2_call v2 (P.Est { session = "mix" }));
  Alcotest.(check string) "v2 ping" "PONG" (v2_call v2 P.Ping);

  (* a frame split across many tiny writes reassembles (the event loop's
     partial-read state machine) *)
  let frame = Frame.frame (P.encode_request_v2 (P.Est { session = "mix" })) in
  String.iter
    (fun ch ->
      write_all v2.v2fd (String.make 1 ch);
      Thread.yield ())
    frame;
  Alcotest.(check string) "byte-by-byte frame reassembled" "EST 250" (v2_recv v2);

  (* pipelining: several frames in one write, replies in order *)
  let b = Buffer.create 128 in
  Frame.frame_into b (P.encode_request_v2 P.Ping);
  Frame.frame_into b (P.encode_request_v2 (P.Est { session = "mix" }));
  Frame.frame_into b (P.encode_request_v2 P.Ping);
  write_all v2.v2fd (Buffer.contents b);
  Alcotest.(check string) "pipelined 1" "PONG" (v2_recv v2);
  Alcotest.(check string) "pipelined 2" "EST 250" (v2_recv v2);
  Alcotest.(check string) "pipelined 3" "PONG" (v2_recv v2);

  (* a corrupted frame surfaces as a framed ERR IO farewell, then close —
     never a desynced stream *)
  let evil = v2_connect port in
  let f = Bytes.of_string (Frame.frame (P.encode_request_v2 P.Ping)) in
  Bytes.set f 9 (Char.chr (Char.code (Bytes.get f 9) lxor 0x20));
  write_all evil.v2fd (Bytes.to_string f);
  let farewell = v2_recv evil in
  Alcotest.(check bool)
    (Printf.sprintf "CRC reject is typed (%s)" farewell)
    true
    (starts_with "ERR IO" farewell);
  let buf = Bytes.create 16 in
  Alcotest.(check int) "connection closed after CRC reject" 0
    (try Unix.read evil.v2fd buf 0 16 with Unix.Unix_error _ -> 0);
  v2_close evil;

  disconnect v1;
  v2_close v2;
  Server.request_stop s;
  Thread.join th;
  rm_rf spool_dir

(* A v1 text client's mutations are journaled as v2 frame bodies: its ADDB
   — percent-armored on the wire, spaces inside every rect payload — lands
   in the journal as the binary record a v2 client would send, and the
   journal replays to the same answer.  Small disjoint boxes keep the
   session exact, so the comparison is bitwise. *)
let test_v1_mutations_journal_binary () =
  rm_rf spool_dir;
  let wal_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "delphic-test-wal-%d" (Unix.getpid ()))
  in
  rm_rf wal_dir;
  let wal = { Server.dir = wal_dir; fsync = Delphic_server.Wal.Never; checkpoint_every = 0 } in
  let s = Server.create ~wal ~port:0 ~spool:spool_dir ~seed:5 () in
  let th = Server.start s in
  let c = connect (Server.port s) in
  Alcotest.(check string) "open" "OK opened j" (rpc c "OPEN j rect 0.3 0.2 17");
  Alcotest.(check string) "ADDB with t=" "OKB 2" (rpc c "ADDB j t=5 2 0%209%200%209 100%20109%200%209");
  Alcotest.(check string) "ADDB stamped here" "OKB 1" (rpc c "ADDB j 1 200%20209%200%209");
  let live = rpc c "EST j" in
  Alcotest.(check string) "exact answer" "EST 300" live;
  (* the journal as written, record by record *)
  let file =
    In_channel.with_open_bin (Filename.concat wal_dir "journal") In_channel.input_all
  in
  let rec records pos acc =
    if pos >= String.length file then List.rev acc
    else
      let len = Frame.read_be32 file pos in
      records (pos + 8 + len) (String.sub file (pos + 8) len :: acc)
  in
  let bodies = records 0 [] in
  Alcotest.(check int) "one record per mutation" 3 (List.length bodies);
  List.iteri
    (fun i body ->
      if i > 0 then
        Alcotest.(check string)
          (Printf.sprintf "record %d is a binary ADDB" i)
          "\x01B" (String.sub body 0 2))
    bodies;
  let reg = Delphic_server.Registry.create ~seed:77 () in
  List.iter
    (fun body ->
      match P.parse_frame_body body with
      | Ok req -> ignore (Delphic_server.Registry.dispatch reg req)
      | Error e -> Alcotest.failf "unreadable record: %s" (P.describe_error e))
    bodies;
  Alcotest.(check string) "the journal replays to the same EST" live
    (P.render_response (Delphic_server.Registry.dispatch reg (P.Est { session = "j" })));
  disconnect c;
  Server.request_stop s;
  Thread.join th;
  rm_rf wal_dir;
  rm_rf spool_dir

(* The periodic checkpoint runs on the event loop, before the reply to the
   record that crossed [checkpoint_every] leaves: the moment that reply is
   read, with no wait, the journal is empty and the checkpoint holds every
   acknowledged set.  OPEN and three ADDs cross the first time, four more
   ADDs the second.  Disjoint 10x10 boxes keep the session exact, so the
   checkpoint's answer is checked bitwise. *)
let test_checkpoint_before_crossing_reply () =
  rm_rf spool_dir;
  let wal_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "delphic-test-ckpt-%d" (Unix.getpid ()))
  in
  rm_rf wal_dir;
  let wal =
    { Server.dir = wal_dir; fsync = Delphic_server.Wal.Always; checkpoint_every = 4 }
  in
  let s = Server.create ~wal ~port:0 ~spool:spool_dir ~seed:9 () in
  let th = Server.start s in
  let c = connect (Server.port s) in
  let journal_bytes () = (Unix.stat (Filename.concat wal_dir "journal")).Unix.st_size in
  let checkpointed () =
    let reg = Delphic_server.Registry.create ~seed:1 () in
    let path = Filename.concat (Filename.concat wal_dir "checkpoint") "c.snap" in
    if not (Sys.file_exists path) then Alcotest.fail "no checkpoint/c.snap";
    (match Delphic_server.Registry.restore_from reg ~name:"c" ~path with
    | Ok () -> ()
    | Error e -> Alcotest.failf "checkpoint unreadable: %s" (P.describe_error e));
    P.render_response (Delphic_server.Registry.dispatch reg (P.Est { session = "c" }))
  in
  let add i =
    Alcotest.(check string) "ADD acked" "OK"
      (rpc c (Printf.sprintf "ADD c %d %d 0 9" (100 * i) ((100 * i) + 9)))
  in
  Alcotest.(check string) "open" "OK opened c" (rpc c "OPEN c rect 0.3 0.2 17");
  List.iter add [ 0; 1; 2 ];
  Alcotest.(check int) "journal empty at the first crossing reply" 0 (journal_bytes ());
  Alcotest.(check string) "checkpoint holds the first three sets" "EST 300" (checkpointed ());
  List.iter add [ 3; 4; 5 ];
  Alcotest.(check bool) "records below the mark stay journaled" true (journal_bytes () > 0);
  add 6;
  Alcotest.(check int) "journal empty at the second crossing reply" 0 (journal_bytes ());
  Alcotest.(check string) "checkpoint holds all seven sets" "EST 700" (checkpointed ());
  Alcotest.(check string) "live answer agrees" "EST 700" (rpc c "EST c");
  disconnect c;
  Server.request_stop s;
  Thread.join th;
  rm_rf wal_dir;
  rm_rf spool_dir

let test_stop_is_idempotent () =
  rm_rf spool_dir;
  let s = Server.create ~port:0 ~spool:spool_dir ~seed:1 () in
  let th = Server.start s in
  Server.request_stop s;
  Server.request_stop s;
  Thread.join th;
  Server.request_stop s;
  rm_rf spool_dir

let suite =
  [
    Alcotest.test_case "serve / stop / restart cycle" `Quick test_serve_stop_restart;
    Alcotest.test_case "concurrent sessions" `Quick test_concurrent_sessions;
    Alcotest.test_case "v1/v2 interop on one server" `Quick test_v1_v2_interop;
    Alcotest.test_case "stop is idempotent" `Quick test_stop_is_idempotent;
    Alcotest.test_case "v1 mutations journal as v2 records" `Quick
      test_v1_mutations_journal_binary;
    Alcotest.test_case "a checkpoint runs before the crossing record's reply" `Quick
      test_checkpoint_before_crossing_reply;
  ]
