(* Wire protocol v2 framing: qcheck round-trips of binary ADDB records
   (payloads with newlines, percent signs, and high bytes — exactly what
   the v1 text protocol cannot carry raw), incremental [Frame.scan]
   reassembly across every split point, torn/CRC-flipped frame rejection
   mirroring test_wal.ml's byte surgery, and the zero-copy WAL splice
   ([Wal.append_framed]) replaying byte-identically. *)

module P = Delphic_server.Protocol
module Frame = Delphic_server.Frame
module Wal = Delphic_server.Wal

(* --- generators ------------------------------------------------------- *)

let session_gen =
  QCheck.Gen.(
    let ch =
      oneof
        [
          char_range 'a' 'z';
          char_range 'A' 'Z';
          char_range '0' '9';
          oneofl [ '_'; '.'; '-' ];
        ]
    in
    map (fun l -> String.init (List.length l) (List.nth l)) (list_size (1 -- 12) ch))

(* Payload bytes the text protocol must armor or cannot carry at all:
   newlines, '%', NUL, 0xFF, plus ordinary printables. *)
let payload_gen =
  QCheck.Gen.(
    let ch =
      frequency
        [
          (6, char_range ' ' '~');
          (1, return '\n');
          (1, return '%');
          (1, return '\x00');
          (1, return '\xff');
        ]
    in
    map (fun l -> String.init (List.length l) (List.nth l)) (list_size (0 -- 40) ch))

let batch_gen =
  QCheck.Gen.(
    triple session_gen
      (list_size (0 -- 8) payload_gen)
      (opt (map Float.abs (float_bound_exclusive 1e9))))

let batch_arb =
  QCheck.make
    ~print:(fun (s, ps, ts) ->
      Printf.sprintf "session=%S payloads=[%s] ts=%s" s
        (String.concat "; " (List.map (Printf.sprintf "%S") ps))
        (match ts with None -> "None" | Some t -> string_of_float t))
    batch_gen

let qcheck_case ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- CRC and round-trip ----------------------------------------------- *)

let test_crc_vector () =
  (* the standard CRC-32 check value *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Frame.crc32 "123456789")

(* The table-sliced CRC equals the textbook byte-at-a-time loop at every
   length and offset (the block loop and the byte tail must meet exactly),
   and checksumming pieces equals checksumming their concatenation. *)
let crc_bytewise s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let crc_matches_bytewise (s, cut) =
  let module Crc = Delphic_util.Crc32 in
  let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
  Crc.string s = crc_bytewise s
  && Crc.strings [ String.sub s 0 cut; String.sub s cut (String.length s - cut) ] = Crc.string s
  && Crc.substring s ~pos:cut ~len:(String.length s - cut)
     = crc_bytewise (String.sub s cut (String.length s - cut))

let roundtrip (session, payloads, ts) =
  let req = P.Add_batch { session; payloads; ts } in
  let body = P.encode_request_v2 req in
  (* binary bodies are tagged, carry raw payload bytes, and never need a
     trailing newline *)
  if body.[0] <> '\x01' then QCheck.Test.fail_report "missing binary tag";
  match P.parse_frame_body body with
  | Ok (P.Add_batch b) ->
    b.session = session && b.payloads = payloads && b.ts = ts
  | Ok _ -> QCheck.Test.fail_report "decoded to a different request"
  | Error e -> QCheck.Test.fail_report (P.render_response (P.Error_reply e))

let roundtrip_log (session, payloads, ts) =
  (* the replica-log twin rides the same binary record under its own tag *)
  let req = P.Add_log { session; payloads; ts } in
  let body = P.encode_request_v2 req in
  if body.[0] <> '\x01' then QCheck.Test.fail_report "missing binary tag";
  if body.[1] <> 'L' then QCheck.Test.fail_report "ADDL must carry the L tag";
  match P.parse_frame_body body with
  | Ok (P.Add_log b) ->
    b.session = session && b.payloads = payloads && b.ts = ts
  | Ok _ -> QCheck.Test.fail_report "decoded to a different request"
  | Error e -> QCheck.Test.fail_report (P.render_response (P.Error_reply e))

let non_batch_falls_back () =
  (* every non-ADDB request encodes as its v1 text line, so a v2 stream is
     mixed text/binary framed bodies *)
  List.iter
    (fun req ->
      let body = P.encode_request_v2 req in
      Alcotest.(check string) "text body" (P.render_request req) body;
      match P.parse_frame_body body with
      | Ok req' -> Alcotest.(check bool) "reparses" true (req = req')
      | Error e -> Alcotest.fail (P.render_response (P.Error_reply e)))
    [
      P.Est { session = "s" };
      P.Ping;
      P.Add { session = "s"; payload = "0 9 0 9"; ts = Some 4.5 };
    ]

let test_truncated_binary_rejected () =
  let body =
    P.encode_request_v2
      (P.Add_batch { session = "sess"; payloads = [ "a\nb"; "c%d" ]; ts = Some 7.0 })
  in
  for cut = 2 to String.length body - 1 do
    match P.parse_frame_body (String.sub body 0 cut) with
    | Ok _ -> Alcotest.failf "truncation at %d parsed" cut
    | Error _ -> ()
  done

(* --- Frame.scan: reassembly and rejection ----------------------------- *)

let scan_all s =
  (* feed the whole buffer and collect every complete frame *)
  let buf = Bytes.of_string s in
  let rec go pos acc =
    match Frame.scan buf ~pos ~len:(Bytes.length buf) with
    | Frame.Got { body; next } -> go next (body :: acc)
    | Frame.Need _ -> (List.rev acc, `Need)
    | Frame.Bad msg -> (List.rev acc, `Bad msg)
  in
  go 0 []

let test_scan_split_points () =
  let bodies = [ "EST mix"; "\x01Braw\nbytes%\xff"; "" ] in
  let wire = String.concat "" (List.map Frame.frame bodies) in
  let n = String.length wire in
  (* every prefix either yields a clean prefix of the bodies or asks for
     more — never Bad, never a wrong body *)
  for cut = 0 to n do
    let got, tail = scan_all (String.sub wire 0 cut) in
    (match tail with
    | `Bad msg -> Alcotest.failf "prefix %d/%d: Bad %s" cut n msg
    | `Need -> ());
    List.iteri
      (fun i body ->
        Alcotest.(check string)
          (Printf.sprintf "prefix %d frame %d" cut i)
          (List.nth bodies i) body)
      got;
    if cut = n then
      Alcotest.(check int) "all frames at full length" (List.length bodies)
        (List.length got)
  done

let flip_arb =
  QCheck.make
    ~print:(fun (body, off) -> Printf.sprintf "body=%S flip@%d" body off)
    QCheck.Gen.(
      let* body = payload_gen in
      let framed_len = 8 + String.length body in
      let* off = 0 -- (framed_len - 1) in
      return (body, off))

let flipped_never_yields_original (body, off) =
  let f = Bytes.of_string (Frame.frame body) in
  Bytes.set f off (Char.chr (Char.code (Bytes.get f off) lxor 0x5A));
  match Frame.scan f ~pos:0 ~len:(Bytes.length f) with
  | Frame.Got { body = b; _ } ->
    (* a flip inside the length header can only shorten the frame (a longer
       claim reads as Need); the CRC then rejects the mis-sliced body *)
    QCheck.Test.fail_reportf "corrupt frame decoded to %S" b
  | Frame.Need _ | Frame.Bad _ -> true

let test_oversized_length_is_bad () =
  let f = Bytes.of_string (Frame.frame "x") in
  (* claim a body far beyond max_body: must be Bad (protocol violation),
     not Need (which would make the peer wait forever) *)
  Bytes.set f 0 '\xff';
  match Frame.scan f ~pos:0 ~len:(Bytes.length f) with
  | Frame.Bad _ -> ()
  | Frame.Got _ -> Alcotest.fail "oversized frame decoded"
  | Frame.Need _ -> Alcotest.fail "oversized frame waits instead of failing"

(* --- WAL splice -------------------------------------------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "delphic-frame-%d-%d"
         (Unix.getpid ())
         (incr n;
          !n))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let test_wal_splice_roundtrip () =
  let dir = fresh_dir () in
  rm_rf dir;
  let req =
    P.Add_batch
      { session = "sp"; payloads = [ "0 9 0 9"; "raw\n%bytes\xff" ]; ts = Some 12.5 }
  in
  let framed = Frame.frame (P.encode_request_v2 req) in
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  Wal.append_framed w framed;
  Wal.append w "EST sp" (* text records interleave freely *);
  Wal.close w;
  let w2 = Wal.open_ ~dir ~fsync:Wal.Never in
  let seen = ref [] in
  let n, cut = Wal.replay w2 ~f:(fun b -> seen := b :: !seen) in
  Wal.close w2;
  Alcotest.(check int) "two records" 2 n;
  Alcotest.(check bool) "no torn tail" true (cut = None);
  (match List.rev !seen with
  | [ bin; text ] ->
    Alcotest.(check string) "binary body spliced verbatim"
      (P.encode_request_v2 req) bin;
    (match P.parse_frame_body bin with
    | Ok r -> Alcotest.(check bool) "replayed request intact" true (r = req)
    | Error e -> Alcotest.fail (P.render_response (P.Error_reply e)));
    Alcotest.(check string) "text record" "EST sp" text
  | l -> Alcotest.failf "expected 2 bodies, got %d" (List.length l));
  rm_rf dir

let test_append_framed_validates () =
  let dir = fresh_dir () in
  rm_rf dir;
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  Alcotest.check_raises "length/frame mismatch rejected"
    (Invalid_argument "Wal.append_framed: not a whole frame") (fun () ->
      Wal.append_framed w ((Frame.frame "body") ^ "trailing"));
  Wal.close w;
  rm_rf dir

let suite =
  [
    Alcotest.test_case "crc32 check vector" `Quick test_crc_vector;
    qcheck_case "crc32 slicing = bytewise at every length"
      QCheck.(pair (string_of_size (Gen.int_range 0 100)) small_nat)
      crc_matches_bytewise;
    qcheck_case "binary ADDB round-trips (\\n, %, 0xFF payloads)" batch_arb roundtrip;
    qcheck_case "binary ADDL round-trips under the L tag" batch_arb roundtrip_log;
    Alcotest.test_case "non-batch requests encode as text" `Quick non_batch_falls_back;
    Alcotest.test_case "truncated binary body rejected at every cut" `Quick
      test_truncated_binary_rejected;
    Alcotest.test_case "scan reassembles across every split point" `Quick
      test_scan_split_points;
    qcheck_case "flipped byte never yields the original body" flip_arb
      flipped_never_yields_original;
    Alcotest.test_case "oversized length claim is Bad, not Need" `Quick
      test_oversized_length_is_bad;
    Alcotest.test_case "WAL splice round-trips through replay" `Quick
      test_wal_splice_roundtrip;
    Alcotest.test_case "append_framed validates its frame" `Quick
      test_append_framed_validates;
  ]
