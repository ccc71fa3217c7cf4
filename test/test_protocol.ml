(* Wire-protocol codec and registry dispatch, no sockets involved: parsing,
   rendering, round-trips, and the full request -> response step. *)

module P = Delphic_server.Protocol
module Registry = Delphic_server.Registry

let request =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (P.render_request r))
    ( = )

let response =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (P.render_response r))
    ( = )

let parse_ok line =
  match P.parse_request line with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S: ERR %s" line (P.error_code e)

let parse_err line =
  match P.parse_request line with
  | Ok r -> Alcotest.failf "parse %S: expected error, got %s" line (P.render_request r)
  | Error e -> P.error_code e

(* --- request parsing --- *)

let test_parse_requests () =
  Alcotest.check request "open"
    (P.Open
       {
         session = "s1";
         family = P.Rect;
         epsilon = 0.2;
         delta = 0.1;
         log2_universe = 40.0;
       })
    (parse_ok "OPEN s1 rect 0.2 0.1 40");
  Alcotest.check request "open dnf"
    (P.Open
       {
         session = "a.b-c_9";
         family = P.Dnf { nvars = 30 };
         epsilon = 0.3;
         delta = 0.2;
         log2_universe = 30.0;
       })
    (parse_ok "open a.b-c_9 dnf:30 0.3 0.2 30");
  Alcotest.check request "open cov"
    (P.Open
       {
         session = "c";
         family = P.Cov { nbits = 14; strength = 2 };
         epsilon = 0.25;
         delta = 0.1;
         log2_universe = 20.0;
       })
    (parse_ok "OPEN c cov:14:2 0.25 0.1 20");
  Alcotest.check request "add keeps payload verbatim"
    (P.Add { session = "s1"; payload = "3 7 12 40"; ts = None })
    (parse_ok "ADD s1 3 7 12 40");
  Alcotest.check request "addb unarmors each token"
    (P.Add_batch { session = "s1"; payloads = [ "0 9 0 9"; "5 14 0 9" ]; ts = None })
    (parse_ok "ADDB s1 2 0%209%200%209 5%2014%200%209");
  Alcotest.check request "addl is addb's replica-log twin"
    (P.Add_log { session = "s1"; payloads = [ "0 9 0 9"; "5 14 0 9" ]; ts = None })
    (parse_ok "ADDL s1 2 0%209%200%209 5%2014%200%209");
  Alcotest.check request "est" (P.Est { session = "s1" }) (parse_ok "EST s1");
  Alcotest.check request "stats (case, cr)"
    (P.Stats { session = "s1" })
    (parse_ok "stats s1\r");
  Alcotest.check request "snapshot"
    (P.Snapshot { session = "s1"; path = "/tmp/a b.snap" })
    (parse_ok "SNAPSHOT s1 /tmp/a b.snap");
  Alcotest.check request "snapshot without path is a fetch"
    (P.Fetch { session = "s1"; cutoff = None })
    (parse_ok "SNAPSHOT s1");
  Alcotest.check request "merge unarmors its token"
    (P.Merge { session = "s1"; encoded = "delphic-snapshot v2\n\000..." })
    (parse_ok "MERGE s1 delphic-snapshot%20v2%0A%00...");
  Alcotest.check request "restore"
    (P.Restore { session = "s2"; path = "x.snap" })
    (parse_ok "RESTORE s2 x.snap");
  Alcotest.check request "close" (P.Close { session = "s1" }) (parse_ok "CLOSE s1");
  Alcotest.check request "ping" P.Ping (parse_ok "PING");
  Alcotest.check request "hello" P.Hello (parse_ok "HELLO");
  Alcotest.check request "hello (case)" P.Hello (parse_ok "hello");
  Alcotest.check request "expr"
    (P.Expr
       {
         expr = P.Expr_ast.Diff (P.Expr_ast.Inter (P.Expr_ast.Leaf "A", P.Expr_ast.Leaf "B"), P.Expr_ast.Leaf "C");
         m = None;
         w = None;
       })
    (parse_ok "EXPR (A & B) \\ C");
  Alcotest.check request "expr with sample override"
    (P.Expr
       { expr = P.Expr_ast.Union (P.Expr_ast.Leaf "A", P.Expr_ast.Leaf "B");
         m = Some 1024; w = None })
    (parse_ok "EXPR m=1024 A | B");
  Alcotest.check request "m= is not a leaf prefix"
    (P.Expr { expr = P.Expr_ast.Leaf "m0"; m = None; w = None })
    (parse_ok "EXPR m0")

(* The windowed grammar: t= ingest stamps, WIN queries, windowed fetches
   and windowed expressions. *)
let test_parse_windowed_requests () =
  Alcotest.check request "add with timestamp"
    (P.Add { session = "s1"; payload = "3 7 12 40"; ts = Some 12.5 })
    (parse_ok "ADD s1 t=12.5 3 7 12 40");
  Alcotest.check request "addb with timestamp"
    (P.Add_batch { session = "s1"; payloads = [ "0 9 0 9" ]; ts = Some 2.5 })
    (parse_ok "ADDB s1 t=2.5 1 0%209%200%209");
  Alcotest.check request "addl with timestamp"
    (P.Add_log { session = "s1"; payloads = [ "0 9 0 9" ]; ts = Some 2.5 })
    (parse_ok "ADDL s1 t=2.5 1 0%209%200%209");
  Alcotest.check request "win"
    (P.Win { session = "s1"; seconds = 60.0; at = None })
    (parse_ok "WIN s1 60");
  Alcotest.check request "win pinned"
    (P.Win { session = "s1"; seconds = 0.5; at = Some 100.25 })
    (parse_ok "WIN s1 0.5 at=100.25");
  Alcotest.check request "win inf"
    (P.Win { session = "s1"; seconds = infinity; at = None })
    (parse_ok "WIN s1 inf");
  Alcotest.check request "windowed fetch"
    (P.Fetch { session = "s1"; cutoff = Some 99.5 })
    (parse_ok "SNAPSHOT s1 cut=99.5");
  Alcotest.check request "cut=-looking path needs a ./ prefix"
    (P.Snapshot { session = "s1"; path = "./cut=file.snap" })
    (parse_ok "SNAPSHOT s1 ./cut=file.snap");
  Alcotest.check request "expr with window"
    (P.Expr
       { expr = P.Expr_ast.Union (P.Expr_ast.Leaf "A", P.Expr_ast.Leaf "B");
         m = None; w = Some 60.0 })
    (parse_ok "EXPR w=60 A | B");
  Alcotest.check request "expr options in either order"
    (P.Expr { expr = P.Expr_ast.Leaf "A"; m = Some 64; w = Some 0.5 })
    (parse_ok "EXPR w=0.5 m=64 A")

let test_parse_errors () =
  Alcotest.(check string) "empty" "EMPTY" (parse_err "");
  Alcotest.(check string) "blank" "EMPTY" (parse_err "   ");
  Alcotest.(check string) "unknown verb" "UNSUPPORTED" (parse_err "FROB s1");
  Alcotest.(check string) "open arity" "ARITY" (parse_err "OPEN s1 rect 0.2");
  Alcotest.(check string) "merge arity" "ARITY" (parse_err "MERGE s1");
  Alcotest.(check string) "merge with spaces" "ARITY" (parse_err "MERGE s1 two tokens");
  Alcotest.(check string) "snapshot arity" "ARITY" (parse_err "SNAPSHOT");
  Alcotest.(check string) "est arity" "ARITY" (parse_err "EST");
  Alcotest.(check string) "ping arity" "ARITY" (parse_err "PING extra");
  Alcotest.(check string) "hello arity" "ARITY" (parse_err "HELLO extra");
  Alcotest.(check string) "bad eps" "BAD-NUMBER" (parse_err "OPEN s1 rect zero 0.1 40");
  Alcotest.(check string) "bad family" "BAD-FAMILY" (parse_err "OPEN s1 pentagon 0.2 0.1 40");
  Alcotest.(check string) "dnf needs nvars" "BAD-FAMILY" (parse_err "OPEN s1 dnf:0 0.2 0.1 40");
  Alcotest.(check string) "cov strength > nbits" "BAD-FAMILY"
    (parse_err "OPEN s1 cov:4:5 0.2 0.1 40");
  Alcotest.(check string) "bad session name" "BAD-SESSION-NAME"
    (parse_err "EST has/slash");
  Alcotest.(check string) "add without payload" "ARITY" (parse_err "ADD s1");
  Alcotest.(check string) "addb without payloads" "ARITY" (parse_err "ADDB s1");
  Alcotest.(check string) "addb count mismatch" "ARITY" (parse_err "ADDB s1 3 a b");
  Alcotest.(check string) "addb bad count" "BAD-NUMBER" (parse_err "ADDB s1 x a");
  Alcotest.(check string) "addb zero count" "BAD-NUMBER" (parse_err "ADDB s1 0");
  Alcotest.(check string) "addb bad escape" "PARSE" (parse_err "ADDB s1 1 a%ZZb");
  Alcotest.(check string) "expr arity" "ARITY" (parse_err "EXPR");
  Alcotest.(check string) "expr arity with only m=" "ARITY" (parse_err "EXPR m=64");
  Alcotest.(check string) "expr zero samples" "BAD-EXPR" (parse_err "EXPR m=0 A");
  Alcotest.(check string) "expr bad sample count" "BAD-EXPR" (parse_err "EXPR m=lots A");
  Alcotest.(check string) "malformed expression" "BAD-EXPR" (parse_err "EXPR A &");
  (match P.parse_request "EXPR (A & B" with
  | Error (P.Bad_expr { pos; _ }) ->
    (* columns count within the expression text, not the wire line *)
    Alcotest.(check int) "expr error column" 7 pos
  | _ -> Alcotest.fail "unclosed paren must be BAD-EXPR")

let expect_bad_expr name line pos =
  match P.parse_request line with
  | Error (P.Bad_expr { pos = p; _ }) -> Alcotest.(check int) name pos p
  | Error e -> Alcotest.failf "%s: got ERR %s" name (P.error_code e)
  | Ok r -> Alcotest.failf "%s: parsed as %s" name (P.render_request r)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_parse_window_errors () =
  Alcotest.(check string) "win arity" "ARITY" (parse_err "WIN s1");
  Alcotest.(check string) "win zero window" "BAD-NUMBER" (parse_err "WIN s1 0");
  Alcotest.(check string) "win negative window" "BAD-NUMBER" (parse_err "WIN s1 -3");
  Alcotest.(check string) "win bad at=" "BAD-NUMBER" (parse_err "WIN s1 60 at=noon");
  Alcotest.(check string) "win stray token" "ARITY" (parse_err "WIN s1 60 bogus");
  Alcotest.(check string) "add bad timestamp" "BAD-NUMBER" (parse_err "ADD s1 t=x 1 2");
  Alcotest.(check string) "add timestamp without payload" "ARITY" (parse_err "ADD s1 t=5");
  Alcotest.(check string) "addb bad timestamp" "BAD-NUMBER" (parse_err "ADDB s1 t=x 1 a");
  Alcotest.(check string) "fetch bad cutoff" "BAD-NUMBER" (parse_err "SNAPSHOT s1 cut=abc");
  Alcotest.(check string) "expr option without body" "ARITY" (parse_err "EXPR w=60");
  (* malformed and unknown EXPR options carry the offending token's 1-based
     column in the argument text *)
  expect_bad_expr "zero window column" "EXPR w=0 A" 1;
  expect_bad_expr "negative window column" "EXPR w=-5 A" 1;
  expect_bad_expr "unknown option column" "EXPR q=9 A" 1;
  expect_bad_expr "unknown option after m= column" "EXPR m=64 q=9 A" 6;
  expect_bad_expr "bad m= after w= column" "EXPR w=60 m=zero A" 6;
  match P.parse_request "EXPR m=64 q=9 A" with
  | Error (P.Bad_expr { msg; _ }) ->
    Alcotest.(check bool) "message names the offending token" true
      (contains ~needle:"q=9" msg)
  | _ -> Alcotest.fail "unknown option must be BAD-EXPR"

let test_payload_armor () =
  Alcotest.(check string) "spaces escape" "0%209%200%209" (P.armor_payload "0 9 0 9");
  Alcotest.(check string) "percent escapes itself" "50%2525" (P.armor_payload "50%25");
  let plain = "plain-token" in
  Alcotest.(check bool) "clean payload returned as-is" true (P.armor_payload plain == plain);
  (match P.unarmor_payload "0%209%0A%0D%25" with
  | Ok s -> Alcotest.(check string) "all four escapes decode" "0 9\n\r%" s
  | Error e -> Alcotest.failf "unarmor: %s" e);
  (match P.unarmor_payload "a b" with
  | Error _ -> ()
  | Ok s -> Alcotest.failf "bare space must not decode (got %S)" s);
  (match P.unarmor_payload "abc%2" with
  | Error _ -> ()
  | Ok s -> Alcotest.failf "truncated escape must not decode (got %S)" s);
  match P.unarmor_payload "abc%ZZ" with
  | Error _ -> ()
  | Ok s -> Alcotest.failf "unknown escape must not decode (got %S)" s

(* A sketch token is arbitrary bytes.  The v1 text line armors it into one
   printable token, the v2 reply is a binary record carrying it raw; both
   must hand the client the identical bytes — codec-level, then through a
   live server answering a v1 and a v2 connection. *)
let test_sketch_token_paths () =
  let module Io = Delphic_core.Snapshot_io in
  let module Frame = Delphic_server.Frame in
  let module Server = Delphic_server.Server in
  let module Rpc = Delphic_cluster.Rpc in
  let token = String.init 1024 (fun i -> Char.chr ((i * 37) land 0xFF)) in
  let line = P.render_response (P.Sketch token) in
  Alcotest.(check bool) "v1 line carries one whitespace-free token" true
    (not
       (String.exists
          (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\012' || c = '\r')
          (String.sub line 7 (String.length line - 7))));
  Alcotest.check response "v1 line" (P.Sketch token)
    (match P.parse_response line with Ok r -> r | Error e -> Alcotest.fail e);
  let body =
    match Server.reply ~proto:Delphic_server.Evloop.V2 (P.Sketch token) with
    | Delphic_server.Evloop.Record { head; body } ->
      Alcotest.(check string) "record head" P.sketch_head head;
      let buf = Buffer.create 16 in
      Frame.frame_parts_into buf ~head body;
      let framed = Buffer.contents buf in
      (match Frame.scan (Bytes.of_string framed) ~pos:0 ~len:(String.length framed) with
      | Frame.Got { body; _ } -> body
      | _ -> Alcotest.fail "v2 record did not frame")
    | _ -> Alcotest.fail "v2 SKETCH must be a binary record"
  in
  Alcotest.check response "v2 record" (P.Sketch token)
    (match P.parse_reply_frame (Bytes.of_string body) ~pos:0 ~len:(String.length body) with
    | Ok r -> r
    | Error e -> Alcotest.fail e);
  (* a live server: one session fetched over both protocols *)
  let spool =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "delphic-test-token-%d" (Unix.getpid ()))
  in
  let srv = Server.create ~port:0 ~spool ~seed:3 () in
  let th = Server.start srv in
  (* v1 over the text front door (render out, parse in), v2 over [Rpc] *)
  let v1 =
    let c = Test_server.connect (Server.port srv) in
    Fun.protect
      ~finally:(fun () -> Test_server.disconnect c)
      (fun () ->
        let call req =
          match P.parse_response (Test_server.rpc c (P.render_request req)) with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        ignore (call (P.Open { session = "t"; family = P.Rect; epsilon = 0.3; delta = 0.2; log2_universe = 20.0 }));
        ignore (call (P.Add_batch { session = "t"; payloads = [ "0 9 0 9"; "5 40 3 7" ]; ts = Some 2.5 }));
        match call (P.Fetch { session = "t"; cutoff = None }) with
        | P.Sketch tok -> tok
        | r -> Alcotest.failf "SNAPSHOT: %s" (P.render_response r))
  in
  let v2 =
    match Rpc.connect ~host:"127.0.0.1" ~port:(Server.port srv) ~timeout:5.0 () with
    | Error e -> Alcotest.fail (Rpc.describe_connect_error e)
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Rpc.close c)
        (fun () ->
          match Rpc.call c (P.Fetch { session = "t"; cutoff = None }) with
          | Ok (P.Sketch tok) -> tok
          | Ok r -> Alcotest.failf "SNAPSHOT: %s" (P.render_response r)
          | Error e -> Alcotest.fail e)
  in
  Server.request_stop srv;
  Thread.join th;
  if Sys.file_exists spool then begin
    Array.iter (fun f -> Sys.remove (Filename.concat spool f)) (Sys.readdir spool);
    Unix.rmdir spool
  end;
  Alcotest.(check bool) "v1 and v2 deliver identical token bytes" true (String.equal v1 v2);
  Alcotest.(check bool) "the token decodes" true (Result.is_ok (Io.decode v1))

let test_session_names () =
  Alcotest.(check bool) "plain ok" true (P.session_name_ok "run-2.b_7");
  Alcotest.(check bool) "empty rejected" false (P.session_name_ok "");
  Alcotest.(check bool) "space rejected" false (P.session_name_ok "a b");
  Alcotest.(check bool) "slash rejected" false (P.session_name_ok "a/b")

let test_family_tokens () =
  List.iter
    (fun f ->
      match P.family_of_token (P.family_to_token f) with
      | Ok f' -> Alcotest.(check bool) "token roundtrip" true (f = f')
      | Error e -> Alcotest.failf "token %s: %s" (P.family_to_token f) (P.error_code e))
    [ P.Rect; P.Dnf { nvars = 40 }; P.Cov { nbits = 14; strength = 2 } ]

(* --- render/parse round-trips --- *)

let roundtrip_request r =
  match P.parse_request (P.render_request r) with
  | Ok r' -> r = r'
  | Error _ -> false

(* The versioned fetch and its replies.  Its ver=<n> token sits where the
   session name goes, which no session name can spell, so a parser that
   predates the form refuses it: it is never read as SNAPSHOT <session>
   <path> and a file written. *)
let test_versioned_fetch_forms () =
  let fetch since cutoff = P.Fetch_since { session = "s1"; cutoff; since } in
  Alcotest.check request "versioned fetch" (fetch 7 None) (parse_ok "SNAPSHOT ver=7 s1");
  Alcotest.check request "versioned windowed fetch" (fetch 0 (Some 99.5))
    (parse_ok "SNAPSHOT ver=0 s1 cut=99.5");
  List.iter
    (fun r -> Alcotest.check request "renders and parses back" r (parse_ok (P.render_request r)))
    [ fetch 7 None; fetch 0 (Some 1754649990.25) ];
  Alcotest.(check bool) "the version token is no session name" false (P.session_name_ok "ver=7");
  List.iter
    (fun (line, code) -> Alcotest.(check string) line code (parse_err line))
    [
      ("SNAPSHOT ver=7 s1 /tmp/x.snap", "ARITY");
      ("SNAPSHOT ver=7", "ARITY");
      ("SNAPSHOT ver=-1 s1", "BAD-NUMBER");
      ("SNAPSHOT ver=x s1", "BAD-NUMBER");
      ("SNAPSHOT ver=7 s1 cut=x", "BAD-NUMBER");
    ];
  let token = String.init 300 (fun i -> Char.chr ((i * 53) land 0xFF)) in
  List.iter
    (fun r ->
      Alcotest.check response "v1 reply round-trips" r
        (match P.parse_response (P.render_response r) with Ok r -> r | Error e -> Alcotest.fail e))
    [ P.Sketch_at { version = 9; token = Some token }; P.Sketch_at { version = 9; token = None } ];
  Alcotest.(check string) "unchanged is one short line" "UNCHANGED ver=9"
    (P.render_response (P.Sketch_at { version = 9; token = None }));
  match P.reply_record (P.Sketch_at { version = 1 lsl 40; token = Some token }) with
  | None -> Alcotest.fail "a versioned token must travel as a v2 record"
  | Some (head, body) ->
    let frame = Bytes.of_string (head ^ body) in
    Alcotest.check response "v2 record round-trips"
      (P.Sketch_at { version = 1 lsl 40; token = Some token })
      (match P.parse_reply_frame frame ~pos:0 ~len:(Bytes.length frame) with
      | Ok r -> r
      | Error e -> Alcotest.fail e)

(* A registry answers a versioned fetch UNCHANGED until the next mutation,
   and a session re-opened under the same name never reuses a version. *)
let test_dispatch_versioned_fetch () =
  let reg = Registry.create ~seed:5 () in
  let d = Registry.dispatch reg in
  let open_s = P.Open { session = "v"; family = P.Rect; epsilon = 0.3; delta = 0.2; log2_universe = 17.0 } in
  let fetch since =
    match d (P.Fetch_since { session = "v"; cutoff = None; since }) with
    | P.Sketch_at { version; token } -> (version, token)
    | r -> Alcotest.failf "FETCH: %s" (P.render_response r)
  in
  ignore (d open_s);
  ignore (d (P.Add { session = "v"; payload = "0 9 0 9"; ts = Some 1.0 }));
  let v1, token = fetch 0 in
  Alcotest.(check bool) "version 0 gets the token" true (v1 > 0 && token <> None);
  Alcotest.(check bool) "same version: unchanged" true (fetch v1 = (v1, None));
  ignore (d (P.Add { session = "v"; payload = "5 14 0 9"; ts = Some 2.0 }));
  let v2, token = fetch v1 in
  Alcotest.(check bool) "a mutation moves the version" true (v2 <> v1 && token <> None);
  ignore (d (P.Close { session = "v" }));
  ignore (d open_s);
  let v3, _ = fetch v2 in
  Alcotest.(check bool) "a re-opened session draws a new version" true (v3 <> v1 && v3 <> v2)

let test_request_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (P.render_request r))
        true (roundtrip_request r))
    [
      P.Open
        {
          session = "s";
          family = P.Cov { nbits = 10; strength = 3 };
          epsilon = 0.05;
          delta = 0.001;
          log2_universe = 64.0;
        };
      P.Add { session = "s"; payload = "0 9 0 9"; ts = None };
      P.Add { session = "s"; payload = "0 9 0 9"; ts = Some 12.5 };
      P.Add_batch
        { session = "s"; payloads = [ "0 9 0 9"; "5 14 0 9"; "50% off\r\n" ];
          ts = None };
      P.Add_batch { session = "s"; payloads = [ "0 9 0 9" ]; ts = Some 1.25e9 };
      P.Add_log
        { session = "s"; payloads = [ "0 9 0 9"; "50% off\r\n" ]; ts = None };
      P.Add_log { session = "s"; payloads = [ "0 9 0 9" ]; ts = Some 1.25e9 };
      P.Win { session = "s"; seconds = 60.0; at = None };
      P.Win { session = "s"; seconds = 0.5; at = Some 1754650000.0 };
      P.Win { session = "s"; seconds = infinity; at = None };
      P.Est { session = "s" };
      P.Stats { session = "s" };
      P.Snapshot { session = "s"; path = "spool/s.snap" };
      P.Restore { session = "s"; path = "spool/s.snap" };
      P.Fetch { session = "s"; cutoff = None };
      P.Fetch { session = "s"; cutoff = Some 1754649990.25 };
      P.Merge { session = "s"; encoded = "delphic-snapshot%20v2%0Aend%0A" };
      P.Close { session = "s" };
      P.Ping;
      P.Hello;
      P.Coord_epoch { epoch = 7 };
      P.Sessions;
      P.Lease;
      P.Expr
        {
          expr =
            P.Expr_ast.Sym_diff
              ( P.Expr_ast.Union (P.Expr_ast.Leaf "A", P.Expr_ast.Leaf "B"),
                P.Expr_ast.Inter (P.Expr_ast.Leaf "C", P.Expr_ast.Leaf "A") );
          m = None;
          w = None;
        };
      P.Expr { expr = P.Expr_ast.Leaf "shard-1.us"; m = Some 4096; w = None };
      P.Expr { expr = P.Expr_ast.Leaf "A"; m = Some 64; w = Some 30.0 };
    ]

let gen_session =
  QCheck.string_gen_of_size
    (QCheck.Gen.int_range 1 12)
    (QCheck.Gen.oneofl
       [ 'a'; 'z'; 'A'; 'Z'; '0'; '9'; '_'; '.'; '-' ])

let prop_open_roundtrip =
  QCheck.Test.make ~name:"OPEN roundtrip (random)" ~count:300
    (QCheck.triple gen_session
       (QCheck.float_range 0.01 0.99)
       (QCheck.float_range 1.0 128.0))
    (fun (session, eps, log2u) ->
      roundtrip_request
        (P.Open
           {
             session;
             family = P.Dnf { nvars = 17 };
             epsilon = eps;
             delta = eps /. 2.0;
             log2_universe = log2u;
           }))

let prop_add_roundtrip =
  QCheck.Test.make ~name:"ADD payload roundtrip (random)" ~count:300
    (QCheck.pair gen_session
       (QCheck.string_gen_of_size
          (QCheck.Gen.int_range 1 40)
          (QCheck.Gen.oneofl [ '0'; '5'; '9'; ' '; '-'; 'x' ])))
    (fun (session, payload) ->
      let payload = String.trim payload in
      QCheck.assume (payload <> "");
      roundtrip_request (P.Add { session; payload; ts = None }))

let gen_payload =
  QCheck.string_gen_of_size
    (QCheck.Gen.int_range 1 30)
    (QCheck.Gen.oneofl [ '0'; '9'; ' '; '%'; '\n'; '\r'; '-'; 'x'; '2'; '5' ])

let prop_armor_roundtrip =
  QCheck.Test.make ~name:"payload armor roundtrip (random)" ~count:500 gen_payload
    (fun payload ->
      let tok = P.armor_payload payload in
      (not (String.exists (fun c -> c = ' ' || c = '\n' || c = '\r') tok))
      && P.unarmor_payload tok = Ok payload)

let prop_addb_roundtrip =
  QCheck.Test.make ~name:"ADDB frame roundtrip (random)" ~count:300
    (QCheck.pair gen_session
       (QCheck.list_of_size (QCheck.Gen.int_range 1 10) gen_payload))
    (fun (session, payloads) ->
      (* an all-escapable payload armors to a non-empty token, so any
         non-empty payload survives the frame *)
      QCheck.assume (List.for_all (fun p -> p <> "") payloads);
      roundtrip_request (P.Add_batch { session; payloads; ts = None }))

let prop_addl_roundtrip =
  QCheck.Test.make ~name:"ADDL frame roundtrip (random)" ~count:300
    (QCheck.pair gen_session
       (QCheck.list_of_size (QCheck.Gen.int_range 1 10) gen_payload))
    (fun (session, payloads) ->
      QCheck.assume (List.for_all (fun p -> p <> "") payloads);
      roundtrip_request (P.Add_log { session; payloads; ts = None }))

let all_errors =
  [
    P.Empty_request;
    P.Unknown_command "FROB";
    P.Wrong_arity { command = "OPEN"; expected = "OPEN <session> <family> <eps> <delta> <log2u>" };
    P.Bad_number { what = "eps"; value = "zero" };
    P.Bad_family "pentagon";
    P.Bad_session_name "a/b";
    P.Unknown_session "ghost";
    P.Session_exists "s1";
    P.Bad_params "epsilon must lie in (0, 1)";
    P.Bad_line { line = 7; msg = "not an integer: bogus" };
    P.Bad_expr { pos = 7; msg = "unclosed '(' opened at column 1" };
    P.Io_error "no such file";
    P.Server_error "boom";
    P.Fenced 5;
    P.Read_only "standby";
  ]

(* The degraded flag and the legacy error spelling have fixed wire forms. *)
let test_wire_forms () =
  Alcotest.(check string)
    "degraded estimate" "EST 150 DEGRADED"
    (P.render_response (P.Estimate { value = 150.0; degraded = true; stale_shards = [] }));
  Alcotest.(check string)
    "clean estimate" "EST 150"
    (P.render_response (P.Estimate { value = 150.0; degraded = false; stale_shards = [] }));
  Alcotest.(check string)
    "unsupported verb code" "ERR UNSUPPORTED FROB"
    (P.render_response (P.Error_reply (P.Unknown_command "FROB")));
  (match P.parse_response "ERR UNKNOWN-COMMAND FROB" with
  | Ok (P.Error_reply (P.Unknown_command "FROB")) -> ()
  | _ -> Alcotest.fail "legacy UNKNOWN-COMMAND spelling must still parse");
  (* payload-free errors render without a trailing space *)
  Alcotest.(check string)
    "empty-request error has no trailing space" "ERR EMPTY"
    (P.render_response (P.Error_reply P.Empty_request));
  Alcotest.(check string)
    "certified expr reply" "EXPR 1234.5 support=96 m=2048 probes=exact"
    (P.render_response
       (P.Expr_reply
          {
            value = Some 1234.5;
            support = 96.0;
            needed = 0.0;
            samples = 2048;
            quality = P.Probes_exact;
            degraded = false;
          }));
  Alcotest.(check string)
    "low-support expr reply" "EXPR LOWSUPPORT support=12.5 need=70.5 m=256 probes=sketch DEGRADED"
    (P.render_response
       (P.Expr_reply
          {
            value = None;
            support = 12.5;
            needed = 70.5;
            samples = 256;
            quality = P.Probes_sketch;
            degraded = true;
          }));
  (* replication-era forms: stale ring positions ride the DEGRADED flag,
     fencing epochs ride HELLO, and both are absent pre-replication *)
  Alcotest.(check string)
    "degraded estimate names its stale shards" "EST 150 DEGRADED shards=0,2"
    (P.render_response
       (P.Estimate { value = 150.0; degraded = true; stale_shards = [ 0; 2 ] }));
  Alcotest.(check string)
    "pre-failover HELLO keeps the bare v1 shape" "HELLO 3"
    (P.render_response (P.Hello_reply { generation = 3; epoch = 0 }));
  Alcotest.(check string)
    "fenced HELLO carries the epoch" "HELLO 3 epoch=9"
    (P.render_response (P.Hello_reply { generation = 3; epoch = 9 }));
  Alcotest.(check string)
    "COORD announces a fencing epoch" "COORD 7"
    (P.render_request (P.Coord_epoch { epoch = 7 }));
  Alcotest.(check string)
    "primary lease" "LEASE epoch=4 role=primary"
    (P.render_response (P.Lease_reply { epoch = 4; primary = true }));
  Alcotest.(check string)
    "fenced write error" "ERR FENCED 9"
    (P.render_response (P.Error_reply (P.Fenced 9)));
  (* COORD must reject a non-positive epoch: epoch 0 means "never announced"
     and can never be claimed over the wire *)
  (match P.parse_request "COORD 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "COORD 0 must be rejected");
  (* pre-replication SRVSTATS lines (no shard_fresh=) parse as [] *)
  (match
     P.parse_response
       "SRVSTATS conns=1 shed=0 domains=1 dispatched=4 wal_queue=0 wal_last_group=0 wal_groups=0"
   with
  | Ok (P.Server_stats_reply s) ->
    Alcotest.(check (list int)) "legacy srvstats shard_fresh" [] s.P.shard_fresh
  | _ -> Alcotest.fail "legacy SRVSTATS line must parse");
  (* pre-cluster STATS lines (no merges=) parse with merges = 0 *)
  match
    P.parse_response
      "STATS family=rect items=2 entries=150 mode=exact estimate=150 rejects=0"
  with
  | Ok (P.Stats_reply s) -> Alcotest.(check int) "legacy stats merges" 0 s.P.merges
  | _ -> Alcotest.fail "legacy STATS line must parse"

let test_response_roundtrip () =
  let responses =
    [
      P.Ok_reply None;
      P.Ok_reply (Some "opened s1");
      P.Estimate { value = 1745152.0; degraded = false; stale_shards = [] };
      P.Estimate { value = 0.0; degraded = false; stale_shards = [] };
      P.Estimate { value = 1.5e12; degraded = true; stale_shards = [] };
      P.Estimate { value = 42.0; degraded = true; stale_shards = [ 1; 3; 4 ] };
      P.Stats_reply
        {
          family = "cov:14:2";
          items = 42;
          entries = 6817;
          exact = false;
          last_estimate = 1745152.0;
          parse_rejects = 1;
          merges = 3;
        };
      P.Sketch "delphic-snapshot%20v2%0Afamily%20rect%0Aend%0A";
      P.Ok_batch { accepted = 64; errors = [] };
      P.Ok_batch
        {
          accepted = 3;
          errors =
            [
              (1, "not an integer: bogus");
              (4, "dimension 3 but stream started with 2");
            ];
        };
      P.Pong;
      P.Hello_reply { generation = 1; epoch = 0 };
      P.Hello_reply { generation = 0x40000000 lor 12345; epoch = 0 };
      P.Hello_reply { generation = 17; epoch = 3 };
      P.Epoch_reply { epoch = 4 };
      P.Lease_reply { epoch = 4; primary = true };
      P.Lease_reply { epoch = 2; primary = false };
      P.Sessions_reply [];
      P.Sessions_reply
        [
          {
            P.sd_name = "ads.us";
            sd_family = "rect";
            sd_epsilon = 0.2;
            sd_delta = 0.1;
            sd_log2_universe = 34.0;
          };
          {
            P.sd_name = "ads.eu";
            sd_family = "cov:14:2";
            sd_epsilon = 0.05;
            sd_delta = 0.001;
            sd_log2_universe = 64.0;
          };
        ];
      P.Server_stats_reply
        {
          conns = 3;
          shed = 0;
          dispatched = [ 2; 1 ];
          wal_queue = 0;
          wal_last_group = 4;
          wal_groups = 9;
          shard_fresh = [ 2; 2; 1 ];
        };
      P.Expr_reply
        {
          value = Some 1745152.0;
          support = 812.0;
          needed = 0.0;
          samples = 2048;
          quality = P.Probes_exact;
          degraded = false;
        };
      P.Expr_reply
        {
          value = Some 0.25;
          support = 71.5;
          needed = 0.0;
          samples = 64;
          quality = P.Probes_sketch;
          degraded = true;
        };
      P.Expr_reply
        {
          value = None;
          support = 12.5;
          needed = 70.5;
          samples = 256;
          quality = P.Probes_sketch;
          degraded = false;
        };
    ]
    @ List.map (fun e -> P.Error_reply e) all_errors
  in
  List.iter
    (fun r ->
      match P.parse_response (P.render_response r) with
      | Ok r' -> Alcotest.check response (P.render_response r) r r'
      | Error msg -> Alcotest.failf "parse %S: %s" (P.render_response r) msg)
    responses

let test_single_line () =
  List.iter
    (fun e ->
      let s = P.render_response (P.Error_reply e) in
      Alcotest.(check bool)
        (Printf.sprintf "one line: %s" s)
        false
        (String.contains s '\n'))
    all_errors

(* --- registry dispatch (request -> response, still no sockets) --- *)

let dispatch reg line = Registry.dispatch reg (parse_ok line)

let test_dispatch_lifecycle () =
  let reg = Registry.create ~seed:42 () in
  Alcotest.check response "ping" P.Pong (dispatch reg "PING");
  (* the registry has no process identity; 0 = unfenced (the TCP server
     overrides this with its real generation) *)
  Alcotest.check response "hello"
    (P.Hello_reply { generation = 0; epoch = 0 })
    (dispatch reg "HELLO");
  Alcotest.check response "open"
    (P.Ok_reply (Some "opened s1"))
    (dispatch reg "OPEN s1 rect 0.3 0.2 20");
  Alcotest.check response "double open"
    (P.Error_reply (P.Session_exists "s1"))
    (dispatch reg "OPEN s1 rect 0.3 0.2 20");
  Alcotest.check response "add" (P.Ok_reply None) (dispatch reg "ADD s1 0 9 0 9");
  Alcotest.check response "overlapping add" (P.Ok_reply None)
    (dispatch reg "ADD s1 5 14 0 9");
  (* 10x10 and 10x10 overlapping on a 5x10 strip: 150 points, exact mode. *)
  Alcotest.check response "exact estimate"
    (P.Estimate { value = 150.0; degraded = false; stale_shards = [] })
    (dispatch reg "EST s1");
  Alcotest.check response "bad line keeps session"
    (P.Error_reply (P.Bad_line { line = 3; msg = "not an integer: bogus" }))
    (dispatch reg "ADD s1 bogus 9 0 9");
  Alcotest.check response "dim mismatch rejected"
    (P.Error_reply
       (P.Bad_line { line = 4; msg = "dimension 3 but stream started with 2" }))
    (dispatch reg "ADD s1 0 1 0 1 0 1");
  Alcotest.check response "estimate unchanged"
    (P.Estimate { value = 150.0; degraded = false; stale_shards = [] })
    (dispatch reg "EST s1");
  (match dispatch reg "STATS s1" with
  | P.Stats_reply s ->
    Alcotest.(check string) "family" "rect" s.P.family;
    Alcotest.(check int) "items" 2 s.P.items;
    Alcotest.(check int) "entries" 150 s.P.entries;
    Alcotest.(check bool) "exact" true s.P.exact;
    Alcotest.(check int) "rejects" 2 s.P.parse_rejects;
    Alcotest.(check int) "merges" 0 s.P.merges
  | r -> Alcotest.failf "STATS: %s" (P.render_response r));
  Alcotest.check response "close"
    (P.Ok_reply (Some "closed s1"))
    (dispatch reg "CLOSE s1");
  Alcotest.check response "closed session gone"
    (P.Error_reply (P.Unknown_session "s1"))
    (dispatch reg "EST s1")

(* ADDB through the registry: one frame, one reply, per-payload errors
   reported by index while later payloads still land. *)
let test_dispatch_batch () =
  let reg = Registry.create ~seed:53 () in
  ignore (dispatch reg "OPEN s1 rect 0.3 0.2 20");
  Alcotest.check response "clean frame"
    (P.Ok_batch { accepted = 2; errors = [] })
    (dispatch reg "ADDB s1 2 0%209%200%209 5%2014%200%209");
  Alcotest.check response "estimate after batch"
    (P.Estimate { value = 150.0; degraded = false; stale_shards = [] })
    (dispatch reg "EST s1");
  (* malformed payload mid-batch: index 1 is rejected, indexes 0 and 2 land *)
  Alcotest.check response "frame with one bad payload"
    (P.Ok_batch { accepted = 2; errors = [ (1, "not an integer: bogus") ] })
    (Registry.dispatch reg
       (P.Add_batch
          { session = "s1";
            payloads = [ "20 29 0 9"; "bogus 9 0 9"; "30 39 0 9" ];
            ts = None }));
  Alcotest.check response "later payloads landed"
    (P.Estimate { value = 350.0; degraded = false; stale_shards = [] })
    (dispatch reg "EST s1");
  (* two bad payloads: both indexes reported, the frame still half-lands *)
  Alcotest.check response "frame with two bad payloads"
    (P.Ok_batch
       {
         accepted = 1;
         errors =
           [
             (0, "not an integer: x");
             (2, "dimension 3 but stream started with 2");
           ];
       })
    (Registry.dispatch reg
       (P.Add_batch
          {
            session = "s1";
            payloads = [ "x 9 0 9"; "40 49 0 9"; "0 1 0 1 0 1" ];
            ts = None;
          }));
  (match dispatch reg "STATS s1" with
  | P.Stats_reply s ->
    Alcotest.(check int) "every accepted payload processed" 5 s.P.items;
    Alcotest.(check int) "rejects accumulated" 3 s.P.parse_rejects
  | r -> Alcotest.failf "STATS: %s" (P.render_response r));
  Alcotest.check response "unknown session refuses the whole frame"
    (P.Error_reply (P.Unknown_session "ghost"))
    (dispatch reg "ADDB ghost 1 0%209%200%209")

(* ADDL through the registry: a backup copy is applied on arrival and acked
   in the ADDB shape — same answers and counters as eager ADDB under the
   same seed. *)
let test_dispatch_log () =
  let reg_eager = Registry.create ~seed:53 () in
  let reg_log = Registry.create ~seed:53 () in
  ignore (dispatch reg_eager "OPEN s1 rect 0.3 0.2 20");
  ignore (dispatch reg_log "OPEN s1 rect 0.3 0.2 20");
  ignore (dispatch reg_eager "ADDB s1 2 0%209%200%209 5%2014%200%209");
  Alcotest.check response "log frame acked in the ADDB shape"
    (P.Ok_batch { accepted = 2; errors = [] })
    (dispatch reg_log "ADDL s1 2 0%209%200%209 5%2014%200%209");
  Alcotest.check response "log frame lands like ADDB"
    (dispatch reg_eager "EST s1")
    (dispatch reg_log "EST s1");
  (* malformed payloads are acked blind — the primary copy already told the
     sender — and only surface as reject counts *)
  Alcotest.check response "bad payload still acked"
    (P.Ok_batch { accepted = 3; errors = [] })
    (Registry.dispatch reg_log
       (P.Add_log
          { session = "s1";
            payloads = [ "20 29 0 9"; "bogus 9 0 9"; "30 39 0 9" ];
            ts = None }));
  Alcotest.check response "good payloads landed"
    (P.Estimate { value = 350.0; degraded = false; stale_shards = [] })
    (dispatch reg_log "EST s1");
  (match dispatch reg_log "STATS s1" with
  | P.Stats_reply s ->
    Alcotest.(check int) "accepted payloads processed" 4 s.P.items;
    Alcotest.(check int) "reject counted" 1 s.P.parse_rejects
  | r -> Alcotest.failf "STATS: %s" (P.render_response r));
  Alcotest.check response "unknown session refuses the log frame"
    (P.Error_reply (P.Unknown_session "ghost"))
    (dispatch reg_log "ADDL ghost 1 0%209%200%209")

(* The batching equivalence behind the whole ADDB design: chopping one
   stream into arbitrary frames must leave the registry in exactly the
   state singleton ADDs produce — same RNG consumption, same counters,
   same estimate. *)
let prop_batch_equivalence =
  QCheck.Test.make ~name:"ADDB frames match singleton ADDs" ~count:60
    (QCheck.list_of_size (QCheck.Gen.int_range 1 12) (QCheck.int_range 1 7))
    (fun chops ->
      let payloads =
        List.init 40 (fun i ->
            let x = i * 17 mod 83 and y = i * 29 mod 71 in
            Printf.sprintf "%d %d %d %d" x (x + (i mod 9)) y (y + (i mod 7)))
      in
      let open_req = parse_ok "OPEN s rect 0.3 0.2 20" in
      let reg_single = Registry.create ~seed:1234 () in
      let reg_batch = Registry.create ~seed:1234 () in
      ignore (Registry.dispatch reg_single open_req);
      ignore (Registry.dispatch reg_batch open_req);
      List.iter
        (fun p ->
          ignore
            (Registry.dispatch reg_single (P.Add { session = "s"; payload = p; ts = None })))
        payloads;
      let rec take n = function
        | [] -> ([], [])
        | l when n = 0 -> ([], l)
        | x :: tl ->
          let a, b = take (n - 1) tl in
          (x :: a, b)
      in
      let rec feed i = function
        | [] -> ()
        | remaining ->
          let k = List.nth chops (i mod List.length chops) in
          let frame, rest = take k remaining in
          ignore
            (Registry.dispatch reg_batch
               (P.Add_batch { session = "s"; payloads = frame; ts = None }));
          feed (i + 1) rest
      in
      feed 0 payloads;
      let e1 = Registry.dispatch reg_single (P.Est { session = "s" }) in
      let e2 = Registry.dispatch reg_batch (P.Est { session = "s" }) in
      let s1 = Registry.dispatch reg_single (P.Stats { session = "s" }) in
      let s2 = Registry.dispatch reg_batch (P.Stats { session = "s" }) in
      e1 = e2 && s1 = s2)

(* The backup-copy equivalence: feeding a stream as arbitrary ADDL chops
   must leave the registry in exactly the state singleton ADDs produce —
   each frame is applied on arrival, in order, under the session RNG, so
   estimates and counters agree.  (The test name predates on-arrival
   application and is kept.) *)
let prop_log_equivalence =
  QCheck.Test.make ~name:"ADDL frames absorbed at read match singleton ADDs"
    ~count:60
    (QCheck.list_of_size (QCheck.Gen.int_range 1 12) (QCheck.int_range 1 7))
    (fun chops ->
      let payloads =
        List.init 40 (fun i ->
            let x = i * 17 mod 83 and y = i * 29 mod 71 in
            Printf.sprintf "%d %d %d %d" x (x + (i mod 9)) y (y + (i mod 7)))
      in
      let open_req = parse_ok "OPEN s rect 0.3 0.2 20" in
      let reg_single = Registry.create ~seed:1234 () in
      let reg_log = Registry.create ~seed:1234 () in
      ignore (Registry.dispatch reg_single open_req);
      ignore (Registry.dispatch reg_log open_req);
      List.iter
        (fun p ->
          ignore
            (Registry.dispatch reg_single (P.Add { session = "s"; payload = p; ts = None })))
        payloads;
      let rec take n = function
        | [] -> ([], [])
        | l when n = 0 -> ([], l)
        | x :: tl ->
          let a, b = take (n - 1) tl in
          (x :: a, b)
      in
      let rec feed i = function
        | [] -> ()
        | remaining ->
          let k = List.nth chops (i mod List.length chops) in
          let frame, rest = take k remaining in
          ignore
            (Registry.dispatch reg_log
               (P.Add_log { session = "s"; payloads = frame; ts = None }));
          feed (i + 1) rest
      in
      feed 0 payloads;
      let e1 = Registry.dispatch reg_single (P.Est { session = "s" }) in
      let e2 = Registry.dispatch reg_log (P.Est { session = "s" }) in
      let s1 = Registry.dispatch reg_single (P.Stats { session = "s" }) in
      let s2 = Registry.dispatch reg_log (P.Stats { session = "s" }) in
      e1 = e2 && s1 = s2)

let test_dispatch_validation () =
  let reg = Registry.create ~seed:7 () in
  Alcotest.check response "unknown session"
    (P.Error_reply (P.Unknown_session "ghost"))
    (dispatch reg "EST ghost");
  (match dispatch reg "OPEN bad rect 2.0 0.1 40" with
  | P.Error_reply (P.Bad_params _) -> ()
  | r -> Alcotest.failf "expected BAD-PARAMS, got %s" (P.render_response r));
  (* dnf sessions parse DIMACS-style terms *)
  Alcotest.check response "open dnf"
    (P.Ok_reply (Some "opened d"))
    (dispatch reg "OPEN d dnf:10 0.3 0.2 10");
  Alcotest.check response "dnf add" (P.Ok_reply None) (dispatch reg "ADD d 1 -3 7");
  (match dispatch reg "ADD d 1 99" with
  | P.Error_reply (P.Bad_line _) -> ()
  | r -> Alcotest.failf "expected PARSE, got %s" (P.render_response r))

let test_dispatch_snapshot_restore () =
  let reg = Registry.create ~seed:11 () in
  let path = Filename.temp_file "delphic-proto" ".snap" in
  ignore (dispatch reg "OPEN s rect 0.3 0.2 20");
  ignore (dispatch reg "ADD s 0 9 0 9");
  Alcotest.check response "snapshot"
    (P.Ok_reply (Some "snapshotted s"))
    (dispatch reg (Printf.sprintf "SNAPSHOT s %s" path));
  Alcotest.check response "restore under new name"
    (P.Ok_reply (Some "restored s2"))
    (dispatch reg (Printf.sprintf "RESTORE s2 %s" path));
  Alcotest.check response "restored estimate"
    (P.Estimate { value = 100.0; degraded = false; stale_shards = [] })
    (dispatch reg "EST s2");
  Alcotest.check response "restore over live session"
    (P.Error_reply (P.Session_exists "s"))
    (dispatch reg (Printf.sprintf "RESTORE s %s" path));
  (match dispatch reg "RESTORE s3 /nonexistent/nowhere.snap" with
  | P.Error_reply (P.Io_error _) -> ()
  | r -> Alcotest.failf "expected IO error, got %s" (P.render_response r));
  Sys.remove path

(* SNAPSHOT <sid> / MERGE <sid> <token>: the worker half of the cluster.
   Exact-mode sessions make the merged union deterministic. *)
let test_dispatch_fetch_merge () =
  let reg = Registry.create ~seed:23 () in
  ignore (dispatch reg "OPEN a rect 0.3 0.2 20");
  ignore (dispatch reg "OPEN b rect 0.3 0.2 20");
  ignore (dispatch reg "ADD a 0 9 0 9");
  ignore (dispatch reg "ADD b 5 14 0 9");
  let encoded =
    match dispatch reg "SNAPSHOT b" with
    | P.Sketch e -> e
    | r -> Alcotest.failf "SNAPSHOT b: %s" (P.render_response r)
  in
  Alcotest.(check bool)
    "fetch answers a binary snapshot token" true
    (Result.is_ok (Delphic_core.Snapshot_io.decode encoded));
  Alcotest.check response "merge b into a"
    (P.Ok_reply (Some "merged into a"))
    (dispatch reg (Printf.sprintf "MERGE a %s" (P.armor_payload encoded)));
  (* both squares are 10x10, overlapping on a 5x10 strip: union 150 *)
  Alcotest.check response "merged exact union"
    (P.Estimate { value = 150.0; degraded = false; stale_shards = [] })
    (dispatch reg "EST a");
  (match dispatch reg "STATS a" with
  | P.Stats_reply s ->
    Alcotest.(check int) "merges counted" 1 s.P.merges;
    Alcotest.(check int) "items absorbed" 2 s.P.items
  | r -> Alcotest.failf "STATS a: %s" (P.render_response r));
  (* donor is untouched *)
  Alcotest.check response "donor estimate unchanged"
    (P.Estimate { value = 100.0; degraded = false; stale_shards = [] })
    (dispatch reg "EST b");
  (* error paths: garbage token, family mismatch, unknown session *)
  (match dispatch reg "MERGE a not-a-snapshot" with
  | P.Error_reply (P.Bad_params _) -> ()
  | r -> Alcotest.failf "garbage MERGE: %s" (P.render_response r));
  ignore (dispatch reg "OPEN d dnf:10 0.3 0.2 10");
  (match dispatch reg (Printf.sprintf "MERGE d %s" (P.armor_payload encoded)) with
  | P.Error_reply (P.Bad_params _) -> ()
  | r -> Alcotest.failf "family-mismatch MERGE: %s" (P.render_response r));
  Alcotest.check response "fetch of unknown session"
    (P.Error_reply (P.Unknown_session "ghost"))
    (dispatch reg "SNAPSHOT ghost")

(* An unsupported verb must be answered, not punished: the registry replies
   ERR UNSUPPORTED and the session keeps working. *)
let test_dispatch_unsupported () =
  let reg = Registry.create ~seed:29 () in
  ignore (dispatch reg "OPEN s rect 0.3 0.2 20");
  ignore (dispatch reg "ADD s 0 9 0 9");
  (match P.parse_request "FROB s" with
  | Error e ->
    Alcotest.(check string) "code" "UNSUPPORTED" (P.error_code e);
    Alcotest.(check string)
      "rendered reply" "ERR UNSUPPORTED FROB"
      (P.render_response (P.Error_reply e))
  | Ok r -> Alcotest.failf "FROB parsed as %s" (P.render_request r));
  Alcotest.check response "session survives the unknown verb"
    (P.Estimate { value = 100.0; degraded = false; stale_shards = [] })
    (dispatch reg "EST s")

(* EXPR through the registry: exact-regime sessions make the answers
   deterministic — every union sample of [A | B] is a hit, so the reply is
   exactly the union size; disjoint leaves yield LOWSUPPORT; unknown leaves
   and mixed families are clean errors that leave the sessions working. *)
let test_dispatch_expr () =
  let reg = Registry.create ~seed:61 () in
  ignore (dispatch reg "OPEN A rect 0.3 0.2 20");
  ignore (dispatch reg "OPEN B rect 0.3 0.2 20");
  ignore (dispatch reg "ADD A 0 9 0 9");
  ignore (dispatch reg "ADD B 5 14 0 9");
  (match dispatch reg "EXPR A | B" with
  | P.Expr_reply { value = Some v; support; samples; quality; degraded; _ } ->
    Alcotest.(check (float 0.0)) "A | B is the whole union" 150.0 v;
    Alcotest.(check (float 0.0)) "every draw hits" (float_of_int samples) support;
    Alcotest.(check int) "default sample count" 256 samples;
    Alcotest.(check bool) "exact probes" true (quality = P.Probes_exact);
    Alcotest.(check bool) "single registry is never degraded" false degraded
  | r -> Alcotest.failf "EXPR A | B: %s" (P.render_response r));
  (match dispatch reg "EXPR m=64 A | B" with
  | P.Expr_reply { samples = 64; _ } -> ()
  | r -> Alcotest.failf "EXPR m=64: %s" (P.render_response r));
  (* disjoint sessions: no evidence for the intersection *)
  ignore (dispatch reg "OPEN far rect 0.3 0.2 20");
  ignore (dispatch reg "ADD far 500 509 500 509");
  (match dispatch reg "EXPR m=128 A & far" with
  | P.Expr_reply { value = None; support; needed; _ } ->
    Alcotest.(check (float 0.0)) "no evidence" 0.0 support;
    Alcotest.(check bool) "needed is positive" true (needed > 0.0)
  | r -> Alcotest.failf "EXPR A & far: %s" (P.render_response r));
  (match dispatch reg "EXPR A & ghost" with
  | P.Error_reply e -> Alcotest.(check string) "unknown leaf" "UNKNOWN-SESSION" (P.error_code e)
  | r -> Alcotest.failf "EXPR A & ghost: %s" (P.render_response r));
  ignore (dispatch reg "OPEN D dnf:8 0.3 0.2 8");
  (match dispatch reg "EXPR A & D" with
  | P.Error_reply e -> Alcotest.(check string) "mixed family" "BAD-PARAMS" (P.error_code e)
  | r -> Alcotest.failf "EXPR A & D: %s" (P.render_response r));
  (* the query cloned its leaves: the live sessions keep ingesting *)
  Alcotest.check response "A still serves EST"
    (P.Estimate { value = 100.0; degraded = false; stale_shards = [] })
    (dispatch reg "EST A")

(* WIN through the registry with a pinned clock: exact-regime sessions make
   windowed answers deterministic (the exact table keeps each element's
   last-occurrence time).  Square A is t=10, square B t=100; the clock sits
   at 130 so different windows select different suffixes. *)
let test_dispatch_win () =
  let clock = ref 0.0 in
  let reg = Registry.create ~clock:(fun () -> !clock) ~seed:71 () in
  ignore (dispatch reg "OPEN s rect 0.3 0.2 20");
  ignore (dispatch reg "ADD s t=10 0 9 0 9");
  ignore (dispatch reg "ADD s t=100 20 29 0 9");
  clock := 130.0;
  Alcotest.check response "window covering both adds"
    (P.Estimate { value = 200.0; degraded = false; stale_shards = [] })
    (dispatch reg "WIN s 150");
  Alcotest.check response "window covering only the fresh add"
    (P.Estimate { value = 100.0; degraded = false; stale_shards = [] })
    (dispatch reg "WIN s 60");
  Alcotest.check response "window covering nothing"
    (P.Estimate { value = 0.0; degraded = false; stale_shards = [] })
    (dispatch reg "WIN s 10");
  Alcotest.check response "WIN inf agrees with EST"
    (dispatch reg "EST s")
    (dispatch reg "WIN s inf");
  (* pinning at= moves the query instant: the same 25 s window is empty at
     the live clock but catches square B from t=120 *)
  Alcotest.check response "unpinned 25 s window is empty"
    (P.Estimate { value = 0.0; degraded = false; stale_shards = [] })
    (dispatch reg "WIN s 25");
  Alcotest.check response "pinned 25 s window catches square B"
    (P.Estimate { value = 100.0; degraded = false; stale_shards = [] })
    (dispatch reg "WIN s 25 at=120");
  (* a re-occurrence refreshes its elements' last-seen time *)
  ignore (dispatch reg "ADD s t=120 0 9 0 9");
  Alcotest.check response "re-occurrence refreshes square A"
    (P.Estimate { value = 200.0; degraded = false; stale_shards = [] })
    (dispatch reg "WIN s 60");
  Alcotest.check response "win of unknown session"
    (P.Error_reply (P.Unknown_session "ghost"))
    (dispatch reg "WIN ghost 60");
  (* STATS last_estimate is the full-stream figure; WIN must not touch it *)
  (match dispatch reg "STATS s" with
  | P.Stats_reply st ->
    Alcotest.(check bool) "WIN left last_estimate alone" true
      (st.P.last_estimate = 200.0)
  | r -> Alcotest.failf "STATS s: %s" (P.render_response r));
  (* windowed EXPR: every leaf is restricted to the same trailing window *)
  ignore (dispatch reg "OPEN b rect 0.3 0.2 20");
  ignore (dispatch reg "ADD b t=125 40 49 0 9");
  (match dispatch reg "EXPR w=60 s | b" with
  | P.Expr_reply { value = Some v; quality; _ } ->
    Alcotest.(check (float 0.0)) "60 s windowed union" 300.0 v;
    Alcotest.(check bool) "exact probes" true (quality = P.Probes_exact)
  | r -> Alcotest.failf "EXPR w=60: %s" (P.render_response r));
  (match dispatch reg "EXPR w=20 s | b" with
  | P.Expr_reply { value = Some v; _ } ->
    Alcotest.(check (float 0.0)) "20 s windowed union" 200.0 v
  | r -> Alcotest.failf "EXPR w=20: %s" (P.render_response r));
  (* the windowed query cloned its leaves: full-stream EST is untouched *)
  Alcotest.check response "EST unchanged after windowed EXPR"
    (P.Estimate { value = 200.0; degraded = false; stale_shards = [] })
    (dispatch reg "EST s")

(* Striped locking under fire: two writers hammering ADDB into different
   sessions, a reader spinning EST/STATS/FETCH on a third, and the main
   thread taking whole-table snapshots throughout.  Exact-regime sessions
   make loss visible — every accepted payload is a distinct unit cell, so
   the final counts and estimates are deterministic.  A lock-ordering bug
   shows up as a hang, a lost add as a wrong exact count, a torn snapshot
   as a failed per-session outcome. *)
let test_striped_concurrency () =
  let reg = Registry.create ~stripes:4 ~seed:97 () in
  let open_s name =
    match
      Registry.open_session reg ~name ~family:P.Rect ~epsilon:0.3 ~delta:0.2
        ~log2_universe:17.0
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "open %s: %s" name (P.render_response (P.Error_reply e))
  in
  List.iter open_s [ "wa"; "wb"; "rc" ];
  (match Registry.add reg ~name:"rc" ~payload:"0 4 0 4" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "seed rc");
  (* writer [row] fills row [row] of the grid with distinct unit cells *)
  let payload row i = Printf.sprintf "%d %d %d %d" i i row row in
  let rounds = 40 and per = 10 in
  let err_lock = Mutex.create () in
  let errs = ref [] in
  let record msg =
    Mutex.lock err_lock;
    errs := msg :: !errs;
    Mutex.unlock err_lock
  in
  let writer row name =
    Thread.create
      (fun () ->
        for r = 0 to rounds - 1 do
          let payloads = List.init per (fun j -> payload row ((r * per) + j)) in
          match Registry.add_batch reg ~name ~payloads with
          | Ok (n, []) when n = per -> ()
          | Ok (n, e) ->
            record
              (Printf.sprintf "%s: frame accepted %d/%d with %d rejects" name n per
                 (List.length e))
          | Error e -> record (name ^ ": " ^ P.render_response (P.Error_reply e))
        done)
      ()
  in
  let reader =
    Thread.create
      (fun () ->
        for _ = 1 to 300 do
          (match Registry.estimate reg ~name:"rc" with
          | Ok v when v = 25.0 -> ()
          | Ok v -> record (Printf.sprintf "rc estimate drifted to %g" v)
          | Error e -> record ("rc est: " ^ P.render_response (P.Error_reply e)));
          (match Registry.fetch reg ~name:"rc" with
          | Ok _ -> ()
          | Error e -> record ("rc fetch: " ^ P.render_response (P.Error_reply e)));
          match Registry.stats reg ~name:"rc" with
          | Ok _ -> ()
          | Error e -> record ("rc stats: " ^ P.render_response (P.Error_reply e))
        done)
      ()
  in
  let threads = [ writer 1 "wa"; writer 2 "wb"; reader ] in
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "delphic-stripes-%d" (Unix.getpid ()))
  in
  for _ = 1 to 5 do
    let outcomes = Registry.snapshot_all reg ~dir in
    Alcotest.(check int) "snapshot_all sees the whole table" 3 (List.length outcomes);
    List.iter
      (fun (name, r) ->
        match r with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "snapshot_all %s: %s" name msg)
      outcomes;
    Thread.delay 0.002
  done;
  List.iter Thread.join threads;
  (match !errs with
  | [] -> ()
  | e :: _ -> Alcotest.failf "%d concurrent failures, first: %s" (List.length !errs) e);
  let total = rounds * per in
  List.iter
    (fun name ->
      match (Registry.stats reg ~name, Registry.estimate reg ~name) with
      | Ok st, Ok est ->
        Alcotest.(check int) (name ^ " adds all landed") total st.P.items;
        Alcotest.(check int) (name ^ " no parse rejects") 0 st.P.parse_rejects;
        Alcotest.(check (float 0.0)) (name ^ " exact union") (float_of_int total) est
      | _ -> Alcotest.failf "%s unreadable after the run" name)
    [ "wa"; "wb" ];
  Alcotest.(check (list string)) "all sessions present" [ "rc"; "wa"; "wb" ]
    (List.sort compare (Registry.names reg));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let suite =
  [
    Alcotest.test_case "parse requests" `Quick test_parse_requests;
    Alcotest.test_case "parse windowed requests" `Quick test_parse_windowed_requests;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse windowed errors" `Quick test_parse_window_errors;
    Alcotest.test_case "payload armor" `Quick test_payload_armor;
    Alcotest.test_case "sketch token: v1 line = v2 record" `Quick test_sketch_token_paths;
    Alcotest.test_case "session names" `Quick test_session_names;
    Alcotest.test_case "family tokens" `Quick test_family_tokens;
    Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "versioned fetch forms" `Quick test_versioned_fetch_forms;
    Alcotest.test_case "dispatch versioned fetch" `Quick test_dispatch_versioned_fetch;
    Alcotest.test_case "wire forms" `Quick test_wire_forms;
    Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
    Alcotest.test_case "responses are one line" `Quick test_single_line;
    QCheck_alcotest.to_alcotest prop_open_roundtrip;
    QCheck_alcotest.to_alcotest prop_add_roundtrip;
    QCheck_alcotest.to_alcotest prop_armor_roundtrip;
    QCheck_alcotest.to_alcotest prop_addb_roundtrip;
    QCheck_alcotest.to_alcotest prop_addl_roundtrip;
    Alcotest.test_case "dispatch lifecycle" `Quick test_dispatch_lifecycle;
    Alcotest.test_case "dispatch batched adds" `Quick test_dispatch_batch;
    Alcotest.test_case "dispatch replica-log adds" `Quick test_dispatch_log;
    QCheck_alcotest.to_alcotest prop_batch_equivalence;
    QCheck_alcotest.to_alcotest prop_log_equivalence;
    Alcotest.test_case "dispatch validation" `Quick test_dispatch_validation;
    Alcotest.test_case "dispatch snapshot/restore" `Quick test_dispatch_snapshot_restore;
    Alcotest.test_case "dispatch fetch/merge" `Quick test_dispatch_fetch_merge;
    Alcotest.test_case "dispatch unsupported verb" `Quick test_dispatch_unsupported;
    Alcotest.test_case "dispatch expr" `Quick test_dispatch_expr;
    Alcotest.test_case "dispatch win" `Quick test_dispatch_win;
    Alcotest.test_case "striped registry under concurrent fire" `Quick
      test_striped_concurrency;
  ]
