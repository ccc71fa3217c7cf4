(* The v4 snapshot token: exact round-trips (qcheck, per family), a golden
   token pinning the on-disk bytes, atomic file persistence, decode
   robustness (every truncation and byte flip of a token, and any text, is
   an [Error]), and copy parity of the Adaptive wrapper's one-source
   fold. *)

module Io = Delphic_core.Snapshot_io
module Families = Delphic_server.Families
module Params = Delphic_core.Params
module Rng = Delphic_util.Rng
module Range1d = Delphic_sets.Range1d
module Exact = Delphic_sets.Exact
module Workload = Delphic_stream.Workload
module Registry = Delphic_server.Registry
module A = Delphic_core.Adaptive.Make (Range1d)

let sample_header =
  {
    Io.family = "cov:14:2";
    epsilon = 0.2;
    delta = 0.1;
    log2_universe = 40.0;
    exact_capacity = 1835;
    items = 123;
    merges = 4;
    exact_active = false;
    sketch =
      Some
        {
          Io.mode = Params.Practical;
          capacity_scale = 1.0;
          coupon_scale = 2.5;
          s_items = 123;
          max_bucket = 7012;
          skipped = 0;
          membership_calls = 14;
          cardinality_calls = 123;
          sampling_calls = 9;
          min_level = 4;
        };
  }

let sample_exact = [ (8.0, "3 7"); (0.0, "0 0"); (12.5, "12 40") ]
let sample_sketch = [ (3, 1.5, "1,2:1010"); (3, 0.0, "5:0001"); (4, 2.5e5, "9,9:1111") ]
let sample_io = Io.make sample_header ~exact:sample_exact ~sketch:sample_sketch

(* What a token of these parts decodes to: [make] derives the header's
   [min_level] from the sketch entries, and drops them when there is no
   sketch. *)
let expected h ~sketch =
  match h.Io.sketch with
  | None -> (h, [])
  | Some sk ->
    let top = List.fold_left (fun m (l, _, _) -> max m l) 0 sketch in
    ({ h with Io.sketch = Some { sk with Io.min_level = top } }, sketch)

(* The decoded token against its inputs, not against [make]'s own decode. *)
let check_roundtrip name h ~exact ~sketch =
  let h', sketch' = expected h ~sketch in
  match Io.decode (Io.encode (Io.make h ~exact ~sketch)) with
  | Ok io ->
    Alcotest.(check bool) (name ^ ": header") true (Io.header io = h');
    Alcotest.(check bool) (name ^ ": exact entries") true (Io.exact_entries io = exact);
    Alcotest.(check bool) (name ^ ": sketch entries") true (Io.sketch_entries io = sketch')
  | Error msg -> Alcotest.failf "%s: decode failed: %s" name msg

let test_fixed_roundtrips () =
  check_roundtrip "with sketch" sample_header ~exact:sample_exact ~sketch:sample_sketch;
  check_roundtrip "exact only"
    { sample_header with Io.family = "rect"; exact_active = true; sketch = None }
    ~exact:[] ~sketch:[];
  (* Element strings are opaque bytes: spaces, newlines, NULs survive. *)
  check_roundtrip "awkward elements"
    {
      sample_header with
      Io.sketch = Some { (Option.get sample_header.Io.sketch) with Io.mode = Params.Paper };
    }
    ~exact:[ (0.25, " leading space"); (0.0, "new\nline"); (3.0, "nul\000\255") ]
    ~sketch:[ (0, 1.0, "a b c"); (2, infinity, ""); (1, neg_infinity, "\r\n") ];
  (* a decoded token re-encodes to its own bytes *)
  let tok = Io.encode sample_io in
  match Io.decode tok with
  | Ok io -> Alcotest.(check string) "decoded token re-encodes verbatim" tok (Io.encode io)
  | Error msg -> Alcotest.fail msg

let test_header () =
  Alcotest.(check int) "current version" 4 Io.version;
  Alcotest.(check string) "v4 magic first" "\000DS4" (String.sub (Io.encode sample_io) 0 4)

(* A small rect token with exact and sketch entries, byte for byte: it pins
   the on-disk format, so spool files and checkpoints written by one build
   load in the next. *)
let golden =
  String.concat ""
    [
      "\x00DS4";  (* magic *)
      "\x04rect";  (* family *)
      "\x3f\xd0\x00\x00\x00\x00\x00\x00";  (* epsilon 0.25 *)
      "\x3f\xc0\x00\x00\x00\x00\x00\x00";  (* delta 0.125 *)
      "\x40\x44\x00\x00\x00\x00\x00\x00";  (* log2-universe 40 *)
      "\x0a\x05\x01";  (* exact-capacity 10, items 5, merges 1 *)
      "\x02";  (* flags: has a sketch, not exact-active *)
      "\x01";  (* n-exact *)
      "\x01";  (* mode practical *)
      "\x3f\xf0\x00\x00\x00\x00\x00\x00";  (* capacity-scale 1 *)
      "\x40\x04\x00\x00\x00\x00\x00\x00";  (* coupon-scale 2.5 *)
      "\x05\x0c\x00\x04\x03\x01";  (* items, max-bucket, skipped, calls *)
      "\x05\x02";  (* min-level 5, n-sketch 2 *)
      "\x40\x28\x00\x00\x00\x00\x00\x00\x033 7";  (* exact: ts 12, "3 7" *)
      "\x03\x40\x04\x00\x00\x00\x00\x00\x00\x0517 42";  (* level 3, ts 2.5 *)
      "\x05\x00\x00\x00\x00\x00\x00\x00\x00\x030 0";  (* level 5, ts 0 *)
      "\x64\xa0\xdf\xfd";  (* CRC-32 *)
    ]

let test_golden_token () =
  match Io.decode golden with
  | Error msg -> Alcotest.failf "golden decode: %s" msg
  | Ok io ->
    let h = Io.header io in
    Alcotest.(check string) "family" "rect" h.Io.family;
    Alcotest.(check (float 0.0)) "epsilon" 0.25 h.Io.epsilon;
    Alcotest.(check (float 0.0)) "delta" 0.125 h.Io.delta;
    Alcotest.(check (float 0.0)) "log2-universe" 40.0 h.Io.log2_universe;
    Alcotest.(check (list int)) "capacity, items, merges" [ 10; 5; 1 ]
      [ h.Io.exact_capacity; h.Io.items; h.Io.merges ];
    Alcotest.(check bool) "not exact-active" false h.Io.exact_active;
    let sk = Option.get h.Io.sketch in
    Alcotest.(check bool) "practical mode" true (sk.Io.mode = Params.Practical);
    Alcotest.(check (list (float 0.0))) "scales" [ 1.0; 2.5 ]
      [ sk.Io.capacity_scale; sk.Io.coupon_scale ];
    Alcotest.(check (list int)) "sketch counters and min level" [ 5; 12; 0; 4; 3; 1; 5 ]
      [
        sk.Io.s_items; sk.Io.max_bucket; sk.Io.skipped; sk.Io.membership_calls;
        sk.Io.cardinality_calls; sk.Io.sampling_calls; sk.Io.min_level;
      ];
    Alcotest.(check bool) "exact entry" true (Io.exact_entries io = [ (12.0, "3 7") ]);
    Alcotest.(check bool) "sketch entries" true
      (Io.sketch_entries io = [ (3, 2.5, "17 42"); (5, 0.0, "0 0") ]);
    (* the writer produces these bytes from the same parts *)
    Alcotest.(check string) "make writes the golden bytes" golden
      (Io.encode
         (Io.make h ~exact:(Io.exact_entries io) ~sketch:(Io.sketch_entries io)));
    (* and it restores into a live session *)
    match Families.of_io io ~seed:1 with
    | Ok f -> Alcotest.(check int) "restored entries" 2 (Families.entries f)
    | Error msg -> Alcotest.failf "golden restore: %s" msg

(* --- qcheck: decode . encode = Ok, over random snapshots --- *)

(* Elements as each served family encodes them, plus arbitrary bytes: the
   token treats elements as opaque, length-prefixed strings. *)
let gen_family_elt family =
  QCheck.Gen.(
    let bits n = string_size (return n) ~gen:(oneofl [ '0'; '1' ]) in
    match family with
    | "rect" ->
      map2 (Printf.sprintf "%d %d") (int_range 0 1_000_000) (int_range (-5) 1_000_000)
    | "dnf:40" -> bits 40
    | _ ->
      map2
        (fun (a, b) pat -> Printf.sprintf "%d,%d:%s" a (a + b) pat)
        (pair (int_range 0 12) (int_range 1 2))
        (bits 2))

let gen_bytes = QCheck.Gen.(string_size (int_range 0 20) ~gen:char)

(* (header, exact entries, sketch entries) *)
let gen_parts ~elt =
  QCheck.Gen.(
    let* family = oneofl [ "rect"; "dnf:40"; "cov:14:2" ] in
    let elt = elt family in
    let* epsilon = float_range 0.001 0.999 in
    let* delta = float_range 0.001 0.999 in
    let* log2_universe = float_range 1.0 128.0 in
    let* exact_capacity = int_range 1 100_000 in
    let* items = int_range 0 1_000_000 in
    let* merges = int_range 0 1000 in
    let* exact_active = bool in
    let* exact = list_size (int_range 0 20) (pair (float_range 0.0 2e9) elt) in
    let* sketch_entries =
      list_size (int_range 0 20) (triple (int_range 0 60) (float_range 0.0 2e9) elt)
    in
    let* sketch =
      oneof
        [
          return None;
          (let* mode = oneofl [ Params.Paper; Params.Practical ] in
           let* capacity_scale = float_range 0.25 8.0 in
           let* coupon_scale = float_range 0.25 8.0 in
           let* s_items = int_range 0 1_000_000 in
           let* max_bucket = int_range 0 100_000 in
           let* skipped = int_range 0 100 in
           let* membership_calls = int_range 0 1_000_000 in
           let* cardinality_calls = int_range 0 1_000_000 in
           let* sampling_calls = int_range 0 1_000_000 in
           return
             (Some
                {
                  Io.mode;
                  capacity_scale;
                  coupon_scale;
                  s_items;
                  max_bucket;
                  skipped;
                  membership_calls;
                  cardinality_calls;
                  sampling_calls;
                  min_level = 0;
                }));
        ]
    in
    return
      ( {
          Io.family;
          epsilon;
          delta;
          log2_universe;
          exact_capacity;
          items;
          merges;
          exact_active;
          sketch;
        },
        exact,
        if sketch = None then [] else sketch_entries ))

let prop_roundtrip =
  QCheck.Test.make ~name:"decode . encode = Ok (random)" ~count:300
    (QCheck.make (gen_parts ~elt:(fun _ -> gen_bytes)))
    (fun (h, exact, sketch) ->
      match Io.decode (Io.encode (Io.make h ~exact ~sketch)) with
      | Ok io ->
        (Io.header io, Io.exact_entries io, Io.sketch_entries io)
        = (fst (expected h ~sketch), exact, sketch)
      | Error _ -> false)

(* A session restored from a token re-encodes to the same entries, for
   each served family: the element codecs round-trip through the fold, and
   the estimator's direct encoder writes what the record encoder writes.
   Parameters are pinned to ones the estimator accepts; entries are
   distinct elements at levels the sketch can hold. *)
let prop_family_roundtrip =
  let max_level =
    (Params.create ~epsilon:0.2 ~delta:0.1 ~log2_universe:40.0 ()).Params.max_level
  in
  let gen =
    QCheck.Gen.(
      let* h, exact, sketch = gen_parts ~elt:gen_family_elt in
      let exact = List.sort_uniq (fun (_, a) (_, b) -> compare a b) exact in
      let sketch =
        List.sort_uniq (fun (_, _, a) (_, _, b) -> compare a b) sketch
        |> List.map (fun (l, ts, e) -> (min l max_level, ts, e))
      in
      return
        (Io.make
           {
             h with
             Io.epsilon = 0.2;
             delta = 0.1;
             log2_universe = 40.0;
             exact_active = h.Io.exact_active || h.Io.sketch = None;
             sketch =
               Option.map
                 (fun sk ->
                   {
                     sk with
                     Io.capacity_scale = 1.0;
                     coupon_scale = 1.0;
                     max_bucket = sk.Io.max_bucket + List.length sketch;
                   })
                 h.Io.sketch;
           }
           ~exact ~sketch))
  in
  let sorted io =
    Io.make (Io.header io)
      ~exact:(List.sort compare (Io.exact_entries io))
      ~sketch:(List.sort compare (Io.sketch_entries io))
  in
  QCheck.Test.make ~name:"of_wire . encode = Ok (families)" ~count:300
    (QCheck.make gen)
    (fun io ->
      match Io.of_wire (Io.encode io) with
      | Error _ -> false
      | Ok decoded -> (
        Io.equal decoded io
        &&
        match Families.of_io decoded ~seed:7 with
        | Error msg -> QCheck.Test.fail_reportf "of_io: %s" msg
        | Ok f -> (
          let merges = (Io.header io).Io.merges in
          Io.equal (sorted (Families.to_io ~merges f)) (sorted io)
          &&
          match Families.encode ~merges f with
          | Error msg -> QCheck.Test.fail_reportf "encode: %s" msg
          | Ok tok -> (
            match Io.decode tok with
            | Ok direct -> Io.equal (sorted direct) (sorted io)
            | Error msg -> QCheck.Test.fail_reportf "direct token: %s" msg))))

let test_wire_rejects () =
  let expect_error name s =
    match Io.of_wire s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: of_wire accepted garbage" name
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  expect_error "not a snapshot" "hello-world";
  expect_error "bare magic" "\000DS4";
  expect_error "future binary version" "\000DS9xxxxxxxx";
  let token = Io.encode sample_io in
  (* every proper prefix of a token, and every single-byte flip of it *)
  for len = 0 to String.length token - 1 do
    expect_error (Printf.sprintf "prefix %d" len) (String.sub token 0 len)
  done;
  String.iteri
    (fun i c ->
      List.iter
        (fun mask ->
          let b = Bytes.of_string token in
          Bytes.set b i (Char.chr (Char.code c lxor mask));
          expect_error (Printf.sprintf "byte %d ^ 0x%02x" i mask) (Bytes.to_string b))
        [ 0x01; 0x80; 0xFF ])
    token

(* --- file persistence --- *)

let test_save_load () =
  let path = Filename.temp_file "delphic-io" ".snap" in
  Io.save ~path sample_io;
  Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
  (match Io.load ~path with
  | Ok io -> Alcotest.(check bool) "load = save" true (Io.equal io sample_io)
  | Error msg -> Alcotest.failf "load: %s" msg);
  Sys.remove path;
  match Io.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load of a removed file must fail"

let test_decode_rejects () =
  let expect_error name text =
    match Io.decode text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: decode accepted garbage" name
  in
  expect_error "empty" "";
  expect_error "bad magic" "not-a-snapshot v1\n";
  expect_error "future version" "delphic-snapshot v99\nfamily rect\n";
  expect_error "truncated"
    "delphic-snapshot v1\nfamily rect\nepsilon 0x1p-2\n";
  expect_error "count larger than payload"
    "delphic-snapshot v1\nfamily rect\nepsilon 0x1p-2\ndelta 0x1p-3\n\
     log2-universe 0x1.4p5\nexact-capacity 10\nitems 1\nexact-active true\n\
     exact-entries 99\nE 1\nno-sketch\nend\n";
  expect_error "trailing garbage after a bad sketch line"
    "delphic-snapshot v1\nfamily rect\nepsilon 0x1p-2\ndelta 0x1p-3\n\
     log2-universe 0x1.4p5\nexact-capacity 10\nitems 0\nexact-active true\n\
     exact-entries 0\nsketch nonsense\nend\n";
  expect_error "older binary version" "\000DS3xxxxxxxx";
  (* a spool directory holding a text snapshot of an older release: the
     file is reported, the other sessions still restore *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "delphic-io-spool-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name text =
    Out_channel.with_open_bin (Filename.concat dir (name ^ ".snap")) (fun oc ->
        output_string oc text)
  in
  write "old"
    "delphic-snapshot v3\nfamily rect\nepsilon 0x1p-2\ndelta 0x1p-3\n\
     log2-universe 0x1.4p5\nexact-capacity 10\nitems 1\nmerges 0\n\
     exact-active true\nexact-entries 1\nE 0x1.8p3 3 7\nno-sketch\nend\n";
  write "new" golden;
  let outcomes =
    match Registry.restore_all (Registry.create ~seed:1 ()) ~dir with
    | r -> r
    | exception e -> Alcotest.failf "restore_all raised %s" (Printexc.to_string e)
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  Alcotest.(check (list string)) "both files seen" [ "new"; "old" ] (List.map fst outcomes);
  Alcotest.(check bool) "the v3 text file is an Error" true
    (Result.is_error (List.assoc "old" outcomes));
  Alcotest.(check bool) "the v4 token restores" true (Result.is_ok (List.assoc "new" outcomes))

let test_encode_validates () =
  let with_family f = Io.make { sample_header with Io.family = f } ~exact:[] ~sketch:[] in
  Alcotest.check_raises "empty family"
    (Invalid_argument
       "Snapshot_io.encode: family token must be non-empty and space-free")
    (fun () -> ignore (Io.encode (with_family "")));
  Alcotest.check_raises "space in family"
    (Invalid_argument
       "Snapshot_io.encode: family token must be non-empty and space-free")
    (fun () -> ignore (Io.encode (with_family "re ct")))

(* --- copy parity: the Adaptive wrapper's one-source fold --- *)

let sorted_exact (s : A.source) =
  let acc = ref [] in
  s.A.iter_exact (fun x ts -> acc := (x, ts) :: !acc);
  List.sort compare !acc

let sorted_sketch (s : A.source) =
  Option.map
    (fun _ ->
      let acc = ref [] in
      s.A.iter_sketch (fun x l ts -> acc := (x, l, ts) :: !acc);
      List.sort compare !acc)
    s.A.header.A.sketch

let test_adaptive_exact_parity () =
  let t = A.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:20.0 ~seed:1 () in
  List.iter (A.process t)
    [
      Range1d.create ~lo:0 ~hi:9;
      Range1d.create ~lo:5 ~hi:14;
      Range1d.create ~lo:100 ~hi:100;
    ];
  let s = A.source t in
  let t' = A.fold [ s ] ~seed:99 in
  Alcotest.(check bool) "still exact" true (A.is_exact t');
  Alcotest.(check (float 0.0)) "same exact estimate" (A.estimate t) (A.estimate t');
  Alcotest.(check int) "same items" (A.items_processed t) (A.items_processed t');
  let s' = A.source t' in
  Alcotest.(check bool)
    "source of the copy = source (up to entry order)" true
    (sorted_exact s = sorted_exact s'
    && sorted_sketch s = sorted_sketch s'
    && { s.A.header with A.sketch = None } = { s'.A.header with A.sketch = None });
  (* the copy keeps estimating correctly as the stream continues *)
  A.process t' (Range1d.create ~lo:200 ~hi:209);
  Alcotest.(check (float 0.0)) "resumed exact count" 26.0 (A.estimate t')

let test_adaptive_sketch_parity () =
  let gen = Rng.create ~seed:77 in
  let pool = Workload.Ranges.uniform gen ~universe:1_000_000 ~count:200 ~max_len:5000 in
  let truth = float_of_int (Exact.range_union pool) in
  let t = A.create ~epsilon:0.25 ~delta:0.2 ~log2_universe:20.0 ~seed:2 () in
  List.iter (A.process t) pool;
  Alcotest.(check bool) "in sketch mode" false (A.is_exact t);
  let s = A.source t in
  let t' = A.fold [ s ] ~seed:1234 in
  Alcotest.(check bool) "copied in sketch mode" false (A.is_exact t');
  Alcotest.(check int) "same items" (A.items_processed t) (A.items_processed t');
  Alcotest.(check bool)
    "sketch state survives the copy" true
    (sorted_sketch s = sorted_sketch (A.source t'));
  let est = A.estimate t' in
  Alcotest.(check bool)
    (Printf.sprintf "copied estimate %.0f near %.0f" est truth)
    true
    (Float.abs (est -. truth) <= 0.3 *. truth)

(* The fold validates a source's header: a decoded token claiming these
   headers is refused the same way. *)
let test_adaptive_restore_validates () =
  let t = A.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:20.0 ~seed:3 () in
  A.process t (Range1d.create ~lo:0 ~hi:9);
  let s = A.source t in
  let doctored f = { s with A.header = f s.A.header } in
  (match A.fold [ doctored (fun h -> { h with A.exact_capacity = 0 }) ] ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "exact_capacity 0 must be rejected");
  match A.fold [ doctored (fun h -> { h with A.exact_active = false; sketch = None }) ] ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sketch mode without a sketch must be rejected"

let suite =
  [
    Alcotest.test_case "fixed round-trips" `Quick test_fixed_roundtrips;
    Alcotest.test_case "header" `Quick test_header;
    Alcotest.test_case "v4 golden token" `Quick test_golden_token;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_family_roundtrip;
    Alcotest.test_case "wire rejects garbage" `Quick test_wire_rejects;
    Alcotest.test_case "save/load" `Quick test_save_load;
    Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects;
    Alcotest.test_case "encode validates" `Quick test_encode_validates;
    Alcotest.test_case "adaptive exact parity" `Quick test_adaptive_exact_parity;
    Alcotest.test_case "adaptive sketch parity" `Quick test_adaptive_sketch_parity;
    Alcotest.test_case "adaptive restore validates" `Quick test_adaptive_restore_validates;
  ]
